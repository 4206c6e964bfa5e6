"""File output: the package's only module that writes files.

``open_sink`` turns a path or an open text file into a writable stream,
``write_csv`` writes a header and rows through it, and ``dumps17`` is the
one JSON emitter.  Callers format their own cells.

The stock JSON encoder prints floats through ``repr`` (shortest
round-trip).  File outputs of this package promise a fixed
17-significant-digit format instead, so numbers survive tools that
re-parse and re-print them with their own ideas about precision.
Non-finite floats have no JSON spelling and are emitted as ``null``.

``dumps17`` makes one pass over the tree.  Inside a container it picks
each value's text by exact type from ``_LEAF`` (float, str, int, bool,
None), so a leaf costs no call of the emitter; only containers recurse.
Any other type (``np.float64``, ``OrderedDict``, a str subclass) goes
through an ``isinstance`` chain.  Each key's text and each depth's pads
are built once per call.  Strings and ints are written as ``json.dumps``
writes them: by ``encode_basestring_ascii`` and ``int.__repr__``.
"""
from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _str_text

__all__ = ["dumps17", "open_sink", "write_csv"]


def _float_text(v: float) -> str:
    if not math.isfinite(v):
        return "null"
    s = format(v, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _bool_text(v) -> str:
    return "true" if v else "false"


def _null_text(v) -> str:
    return "null"


# the text of a leaf, by its exact type
_LEAF = {float: _float_text, str: _str_text, int: int.__repr__, bool: _bool_text,
         type(None): _null_text}


def _subclass_leaf(obj):
    """The text function of a leaf whose exact type is not in ``_LEAF``."""
    for t in (int, float, str):   # bool and NoneType have no subclasses
        if isinstance(obj, t):
            return _LEAF[t]
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _emit(o, depth, put, indent, keys, seps) -> None:
    """Write ``o``, a container at ``depth`` or a leaf, through ``put``.

    ``keys`` maps each key met to its text and ": ", and ``seps`` holds
    each depth's (opening pad, pad between items, closing pad); both live
    for one ``dumps17`` call.
    """
    leaf = _LEAF.get
    if not isinstance(o, (dict, list, tuple)):
        put((leaf(type(o)) or _subclass_leaf(o))(o))
        return
    if not o:
        put("{}" if isinstance(o, dict) else "[]")
        return
    if depth == len(seps):
        if indent is None:
            seps.append(("", ", ", ""))
        else:
            pad = "\n" + " " * (indent * (depth + 1))
            seps.append((pad, "," + pad, "\n" + " " * (indent * depth)))
    first, rest, tail = seps[depth]
    depth += 1
    if isinstance(o, dict):
        sep = "{" + first
        for k, v in o.items():
            kt = keys.get(k)
            if kt is None:
                if not isinstance(k, str):
                    raise TypeError(f"object keys must be str, got {type(k).__name__}")
                kt = keys[k] = _str_text(k) + ": "
            f = leaf(type(v))
            if f is None:
                put(sep + kt)
                _emit(v, depth, put, indent, keys, seps)
            else:
                put(sep + kt + f(v))
            sep = rest
        put(tail + "}")
    else:
        sep = "[" + first
        for v in o:
            f = leaf(type(v))
            if f is None:
                put(sep)
                _emit(v, depth, put, indent, keys, seps)
            else:
                put(sep + f(v))
            sep = rest
        put(tail + "]")


def dumps17(obj, indent: int | None = None) -> str:
    """Serialize ``obj`` to JSON with %.17g floats.

    Accepts the usual JSON-compatible tree of dict/list/tuple/str/float/
    int/bool/None.  ``indent`` behaves like ``json.dumps``'s.
    """
    out: list[str] = []
    _emit(obj, 0, out.append, indent, {}, [])
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
