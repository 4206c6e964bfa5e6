"""The package's single JSON emitter and its file sink."""
import enum
import gc
import io
import json
import math
import re
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from triopoly import PAPER_BOX, PAPER_PARAMS, Box
from triopoly.certificate import certify_box
from triopoly.jsonio import dumps17, open_sink, write_csv


class _Int(int):
    """An int subclass whose str() is not JSON."""

    def __str__(self):
        return "N!"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 5


class _Str(str):
    def __str__(self):
        return "S!"


finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.none() | st.booleans() | st.integers() | st.text() | finite
trees = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=20,
)
float_free = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.integers().map(_Int) | st.sampled_from(_Level),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=20,
)
indents = st.none() | st.integers(min_value=0, max_value=4)

# a JSON number token that is not inside a string
_NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)')


def _floats_of(tree):
    if isinstance(tree, float):
        yield tree
    elif isinstance(tree, dict):
        for v in tree.values():
            yield from _floats_of(v)
    elif isinstance(tree, list):
        for v in tree:
            yield from _floats_of(v)


def _same(a, b) -> bool:
    """Equality that also tells 0.0 from -0.0 and floats from ints."""
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and a == b and math.copysign(1, a) == math.copysign(1, b)
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


@given(trees, indents)
def test_round_trip_is_exact(tree, indent):
    assert _same(json.loads(dumps17(tree, indent=indent)), tree)


@given(trees, indents)
def test_every_float_token_is_17g(tree, indent):
    text = dumps17(tree, indent=indent)
    tokens = [m.group(1) for m in _NUMBER.finditer(text) if m.group(1)]
    floats = [t for t in tokens if "." in t or "e" in t or "E" in t]
    expected = []
    for v in _floats_of(tree):
        s = format(v, ".17g")
        expected.append(s if any(c in s for c in ".eE") else s + ".0")
    assert floats == expected


@given(float_free, indents)
def test_without_floats_matches_stock_encoder(tree, indent):
    assert dumps17(tree, indent=indent) == json.dumps(tree, indent=indent)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_floats_become_null(bad):
    assert dumps17(bad) == "null"
    assert json.loads(dumps17({"a": [1.0, bad]}, indent=2)) == {"a": [1.0, None]}


@pytest.mark.parametrize("key", [1, 1.5, None, ("a",)])
def test_non_str_key_raises(key):
    with pytest.raises(TypeError):
        dumps17({key: 1})


# -- the recursive emitter as the reference --------------------------------------

def _reference_dumps17(obj, indent=None):
    """The recursive emitter ``dumps17`` replaced: an ``isinstance`` chain per
    node and ``json.dumps`` per string and key.  Ints are printed by
    ``int.__repr__``, as the stock encoder does (it used ``str``)."""
    out = []
    _ref_emit(obj, out, indent, 0)
    return "".join(out)


def _ref_float_text(v):
    if not math.isfinite(v):
        return "null"
    s = format(v, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _ref_emit(obj, out, indent, depth):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_ref_float_text(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        _ref_emit_items(obj.items(), "{", "}", out, indent, depth, keyed=True)
    elif isinstance(obj, (list, tuple)):
        _ref_emit_items(obj, "[", "]", out, indent, depth, keyed=False)
    else:
        raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _ref_emit_items(items, open_ch, close_ch, out, indent, depth, keyed):
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
            _ref_emit(v, out, indent, depth + 1)
        else:
            _ref_emit(item, out, indent, depth + 1)
    out.append(tail + close_ch)


# every leaf type, exact and subclassed, and every container type
_keys = st.text(max_size=4) | st.sampled_from(["a", "margin", "é", '"\\\n']).map(_Str)
_leaves = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324])
    | st.floats().map(np.float64) | st.text(max_size=6).map(_Str)
)
_any_tree = st.recursive(
    _leaves,
    lambda kids: (
        st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_keys, kids, max_size=4)
        | st.dictionaries(_keys, kids, max_size=4).map(OrderedDict)
    ),
    max_leaves=40,
)


def _nested(depth):
    tree = [{}, (), [], OrderedDict(), -0.0]
    for i in range(depth):
        tree = {"k": [tree, i], "e": ()} if i % 2 else [tree, {"v": -0.0}, ()]
    return tree


@settings(max_examples=300)
@given(_any_tree, indents)
@example(_nested(40), None)
@example(_nested(40), 3)
@example({"z": [-0.0, 0.0, math.nan, math.inf, -math.inf, np.float64(-0.0)]}, 0)
@example([_Str("a"), {_Str("a"): _Str("b")}, {"a": 1}], 4)
def test_dumps17_matches_the_recursive_reference(tree, indent):
    assert dumps17(tree, indent=indent) == _reference_dumps17(tree, indent=indent)


_BAD_KEY, _BAD_VALUE = "object keys must be str", "not JSON-serializable"


@pytest.mark.parametrize("tree, message", [
    ({"a": {"b": {1: 2}}}, _BAD_KEY),
    ([[{"a": [{("a",): 0.5}]}]], _BAD_KEY),
    ([{"a": 1}, {"b": {"a": 1, None: 2}}], _BAD_KEY),     # after a known str key
    ({"a": [{"b": {"c": [object()]}}]}, _BAD_VALUE),
    ([1.0, [2.0, {"x": {1, 2}}]], _BAD_VALUE),
    ({"a": [np.int64(3)]}, _BAD_VALUE),
    (({"a": b"bytes"},), _BAD_VALUE),
])
@pytest.mark.parametrize("indent", [None, 2])
def test_bad_keys_and_values_deep_in_the_tree_raise(tree, message, indent):
    with pytest.raises(TypeError, match=message):
        _reference_dumps17(tree, indent=indent)
    with pytest.raises(TypeError, match=message):
        dumps17(tree, indent=indent)


def _perturbed_boxes(n):
    """Uniform +-2 % perturbations of the paper box's five free bounds."""
    rng = np.random.default_rng(2013)
    b = PAPER_BOX
    for _ in range(n):
        f = 1.0 + 0.02 * rng.uniform(-1.0, 1.0, 5)
        yield Box(b.x_l * f[0], b.x_r * f[1], b.y_l * f[2], b.y_r * f[3], 0.0, b.z_r * f[4])


def test_certificates_match_the_recursive_reference():
    verdicts = set()
    for box in [PAPER_BOX, *_perturbed_boxes(4)]:
        for engine in ("analytic", "interval", "both"):
            cert = certify_box(PAPER_PARAMS, box, engine=engine)
            verdicts.add(cert.verdict)
            doc = cert.as_dict()
            assert dumps17(doc, indent=2) == _reference_dumps17(doc, indent=2), (box, engine)
    assert len(verdicts) > 1


def test_a_call_leaves_no_garbage_for_the_cycle_collector():
    """The output pieces are freed when ``dumps17`` returns, not at the
    next collection, so certificate text does not pile up."""
    doc = certify_box(PAPER_PARAMS, PAPER_BOX, engine="both").as_dict()
    gc.collect()
    gc.disable()
    try:
        dumps17(doc, indent=2)
        dumps17([{"a": [(), {}]}])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_open_sink_leaves_open_files_open(tmp_path):
    buf = io.StringIO()
    with open_sink(buf) as fh:
        fh.write("x")
    assert not buf.closed and buf.getvalue() == "x"
    path = tmp_path / "out.txt"
    with open_sink(str(path)) as fh:
        fh.write("a\r\nb\n")
    assert fh.closed
    assert path.read_bytes() == b"a\r\nb\n"


def test_write_csv_to_path_and_file_agree(tmp_path):
    rows = [["1.0", "", "nan"], [2, True, "a,b"]]
    buf = io.StringIO()
    write_csv(buf, ["u", "v", "w"], rows)
    path = tmp_path / "t.csv"
    write_csv(path, ["u", "v", "w"], iter(rows))
    assert buf.getvalue() == 'u,v,w\r\n1.0,,nan\r\n2,True,"a,b"\r\n'
    assert path.read_bytes() == buf.getvalue().encode()
