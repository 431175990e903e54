"""
Deterministic, locale-independent serialization for CSV/JSON artifacts.

Every JSON artifact is ``json.dumps(obj, sort_keys=True, indent=2,
ensure_ascii=True) + "\n"``, the stdlib's encoding. ``write_samples`` writes
those same bytes for ``samples.json``, the one document too large to build
whole, from ``sample_paths``' arrays a batch of records at a time.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Callable

# samples.json records formatted at a time, which bounds the sample
# command's memory by its (count, depth) paths array
SAMPLE_BATCH = 512
# one samples.json record as json.dumps(indent=2) lays it out at its depth:
# alpha_hat, log_length and log_mass, then the path's child indices
_RECORD = ('{{\n      "alpha_hat": {},\n      "log_length": {},\n      "log_mass": {},\n'
           '      "path": [\n        {}\n      ]\n    }}')
_PATH_SEP = ",\n        "


def fmt(x) -> str:
    """Fixed 17-significant-digit decimal formatting (round-trips doubles)."""
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return f"{xf:.17g}"


def json_bytes(obj) -> bytes:
    """Canonical JSON: sorted keys, two-space indent, ASCII, newline-terminated."""
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n").encode("ascii")


def write_samples(meta: dict, paths, log_mass, log_len, sink: Callable[[bytes], object]) -> None:
    """
    Pass the bytes of ``json_bytes({"meta": meta, "samples": records})`` to
    ``sink``: the header, then one record per call, then the closing
    brackets. Record j holds ``paths[j]`` as ints, ``log_mass[j]``,
    ``log_len[j]`` and their quotient ``alpha_hat``; the records are
    formatted ``SAMPLE_BATCH`` rows at a time from slices of the arrays.
    """
    head = json_bytes({"meta": meta})[:-3]  # without the closing "\n}\n"
    if not len(paths):
        sink(head + b',\n  "samples": []\n}\n')
        return
    sink(head + b',\n  "samples": [')
    # the text of every child index up to the largest drawn, looked up, not formatted per entry
    digits = [str(i) for i in range(int(paths.max()) + 1)]
    sep = "\n    "
    for lo in range(0, len(paths), SAMPLE_BATCH):
        rows = slice(lo, lo + SAMPLE_BATCH)
        m, ln = log_mass[rows], log_len[rows]
        for path, *floats in zip(paths[rows].tolist(), *map(_json_texts, (m / ln, ln, m))):
            sink((sep + _RECORD.format(*floats, _PATH_SEP.join(map(digits.__getitem__, path))))
                 .encode("ascii"))
            sep = ",\n    "
    sink(b"\n  ]\n}\n")


def _json_texts(values) -> list[str]:
    """The stdlib's JSON text of each float in the 1-D array ``values``."""
    return json.dumps(values.tolist())[1:-1].split(", ")


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
