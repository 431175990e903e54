"""
Deterministic, locale-independent serialization for CSV/JSON artifacts.

``json_bytes`` writes exactly the bytes of ``json.dumps(obj, sort_keys=True,
indent=2, ensure_ascii=True) + "\n"`` without the stdlib's pure-Python
encoder, which ``indent`` forces and which allocates several times the
output size in small chunk strings. ``write_json`` streams the same bytes
into a sink, so a document with a ``JsonStream`` array never exists whole.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Callable, Iterable
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str

_INDENT = "  "
# str pieces joined into one ASCII chunk at a time, which bounds how many are alive
_FLUSH = 1024


def fmt(x) -> str:
    """Fixed 17-significant-digit decimal formatting (round-trips doubles)."""
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return f"{xf:.17g}"


class JsonStream:
    """A JSON array whose elements come from ``items``, consumed once as it is written."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable):
        self.items = items


def json_bytes(obj) -> bytes:
    """
    Canonical JSON: sorted keys, two-space indent, ASCII, newline-terminated.

    Accepts what the stdlib encoder accepts without ``default=`` (str and
    str subclasses such as ``GapPolicy``, int, float including
    ``np.float64``, bool, None, list, tuple, dict), plus ``JsonStream``, and
    raises ``TypeError`` on anything else, such as ``np.int64``, set or bytes.
    """
    chunks: list[bytes] = []
    write_json(obj, chunks.append)
    return b"".join(chunks)


def write_json(obj, sink: Callable[[bytes], object]) -> None:
    """
    Pass the bytes of ``json_bytes(obj)`` to ``sink`` in ASCII chunks.

    ``obj`` may also hold ``JsonStream`` arrays, written as lists are, one
    element at a time.
    """
    parts: list[str] = []
    _write(obj, "\n", parts, sink)
    parts.append("\n")
    sink("".join(parts).encode("ascii"))


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_scalar(v) -> str | None:
    """JSON text of a scalar, None for a container; same type order as json."""
    if isinstance(v, str):
        return _json_str(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _json_float(v)
    if isinstance(v, (list, tuple, dict, JsonStream)):
        return None
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _json_key(k) -> str:
    text = k if isinstance(k, str) else _json_scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return text


def _write(obj, nl: str, parts: list[str], sink: Callable[[bytes], object]) -> None:
    """Append ``obj``'s text at indent ``nl`` to ``parts``, flushing full ones to ``sink``."""
    text = _json_scalar(obj)
    if text is not None:
        parts.append(text)
        return
    inner = nl + _INDENT
    kinds = set(map(type, obj)) if isinstance(obj, (list, tuple)) else ()
    if kinds == {int} or kinds == {float}:
        texts = map(int.__repr__ if kinds == {int} else _json_float, obj)
        parts.append("[" + inner + ("," + inner).join(texts) + nl + "]")
    else:
        if isinstance(obj, dict):
            brackets = "{}"
            items = [(_json_str(_json_key(k)) + ": ", v) for k, v in sorted(obj.items())]
        else:
            brackets = "[]"
            items = zip(repeat(""), obj.items if isinstance(obj, JsonStream) else obj)
        sep = first = brackets[0] + inner
        for head, v in items:
            text = _json_scalar(v)
            if text is None:
                parts.append(sep + head)
                _write(v, inner, parts, sink)
            else:
                parts.append(sep + head + text)
            sep = "," + inner
        parts.append(brackets if sep is first else nl + brackets[1])
    if len(parts) >= _FLUSH:
        sink("".join(parts).encode("ascii"))
        parts.clear()


def config_hash(obj) -> str:
    import hashlib  # here, not at module level: `validate` never hashes

    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


def meta_line(version: str, cfg_hash: str, seed: int) -> str:
    return f"# hsmf {version} config={cfg_hash} seed={seed}"


def csv_bytes(columns, rows, meta: str) -> bytes:
    """CSV with a leading comment line; every cell must already be a string."""
    buf = io.StringIO()
    buf.write(meta + "\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue().encode("ascii")
