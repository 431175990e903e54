"""
Deterministic, locale-independent serialization for CSV/JSON artifacts.

``json_bytes`` writes exactly the bytes of ``json.dumps(obj, sort_keys=True,
indent=2, ensure_ascii=True) + "\n"`` without the stdlib's pure-Python
encoder, which ``indent`` forces and which allocates several times the
output size in small chunk strings.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str

_INDENT = "  "
# str pieces joined into one ASCII chunk at a time, which bounds how many are alive
_FLUSH = 4096


def fmt(x) -> str:
    """Fixed 17-significant-digit decimal formatting (round-trips doubles)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return f"{xf:.17g}"


def json_bytes(obj) -> bytes:
    """
    Canonical JSON: sorted keys, two-space indent, ASCII, newline-terminated.

    Accepts what the stdlib encoder accepts without ``default=`` (str and
    str subclasses such as ``GapPolicy``, int, float including
    ``np.float64``, bool, None, list, tuple, dict) and raises ``TypeError``
    on anything else, such as ``np.int64``, set or bytes.
    """
    chunks: list[bytes] = []
    parts: list[str] = []
    _write(obj, "\n", parts, chunks)
    parts.append("\n")
    chunks.append("".join(parts).encode("ascii"))
    return b"".join(chunks)


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
    if isinstance(v, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _json_key(k) -> str:
    text = k if isinstance(k, str) else _json_scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return text


def _write(obj, nl: str, parts: list[str], chunks: list[bytes]) -> None:
    """Append ``obj``'s text at indent ``nl`` to ``parts``, flushing full ones to ``chunks``."""
    text = _json_scalar(obj)
    if text is not None:
        parts.append(text)
        return
    if not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = nl + _INDENT
    kinds = () if isinstance(obj, dict) else set(map(type, obj))
    if kinds == {int} or kinds == {float}:
        texts = map(int.__repr__ if kinds == {int} else _json_float, obj)
        parts.append("[" + inner + ("," + inner).join(texts) + nl + "]")
    else:
        if isinstance(obj, dict):
            brackets = "{}"
            items = [(_json_str(_json_key(k)) + ": ", v) for k, v in sorted(obj.items())]
        else:
            brackets = "[]"
            items = zip(repeat(""), obj)
        sep = brackets[0] + inner
        for head, v in items:
            text = _json_scalar(v)
            if text is None:
                parts.append(sep + head)
                _write(v, inner, parts, chunks)
            else:
                parts.append(sep + head + text)
            sep = "," + inner
        parts.append(nl + brackets[1])
    if len(parts) >= _FLUSH:
        chunks.append("".join(parts).encode("ascii"))
        parts.clear()


def config_hash(obj) -> str:
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
