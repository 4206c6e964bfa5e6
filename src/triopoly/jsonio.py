"""File output: the package's only module that writes files.

``open_sink`` turns a path or an open text file into a writable stream,
``write_csv`` writes a header and rows through it, and ``dumps17`` is the
one JSON emitter.  Callers format their own cells.

The stock JSON encoder prints floats through ``repr`` (shortest
round-trip).  File outputs of this package promise a fixed
17-significant-digit format instead, so numbers survive tools that
re-parse and re-print them with their own ideas about precision.
Non-finite floats have no JSON spelling and are emitted as ``null``.
"""
from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager

__all__ = ["dumps17", "open_sink", "write_csv"]


def _float_text(v: float) -> str:
    if not math.isfinite(v):
        return "null"
    s = format(v, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _emit(obj, out: list, indent, depth: int) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        _emit_items(obj.items(), "{", "}", out, indent, depth, keyed=True)
    elif isinstance(obj, (list, tuple)):
        _emit_items(obj, "[", "]", out, indent, depth, keyed=False)
    else:
        raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _emit_items(items, open_ch, close_ch, out, indent, depth, keyed) -> None:
    items = list(items)
    if not items:
        out.append(open_ch + close_ch)
        return
    if indent is None:
        first, rest, tail = "", ", ", ""
    else:
        pad = "\n" + " " * (indent * (depth + 1))
        first, rest = pad, "," + pad
        tail = "\n" + " " * (indent * depth)
    out.append(open_ch)
    for i, item in enumerate(items):
        out.append(first if i == 0 else rest)
        if keyed:
            k, v = item
            if not isinstance(k, str):
                raise TypeError(f"object keys must be str, got {type(k).__name__}")
            out.append(json.dumps(k) + ": ")
            _emit(v, out, indent, depth + 1)
        else:
            _emit(item, out, indent, depth + 1)
    out.append(tail + close_ch)


def dumps17(obj, indent: int | None = None) -> str:
    """Serialize ``obj`` to JSON with %.17g floats.

    Accepts the usual JSON-compatible tree of dict/list/tuple/str/float/
    int/bool/None.  ``indent`` behaves like ``json.dumps``'s.
    """
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out)


@contextmanager
def open_sink(path_or_file):
    """Yield a writable text stream for ``path_or_file``.

    An object with a ``write`` method is yielded as it is and left open;
    anything else is a path, opened for writing with ``newline=""`` (so
    the bytes written are the bytes requested on every platform) and
    closed on exit.
    """
    if hasattr(path_or_file, "write"):
        yield path_or_file
        return
    with open(path_or_file, "w", newline="") as fh:
        yield fh


def write_csv(path_or_file, header, rows) -> None:
    """Write one header row, then ``rows``, as CSV to a path or open file."""
    with open_sink(path_or_file) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
