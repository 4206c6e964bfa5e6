"""The package's single JSON emitter and its file sink."""
import io
import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from triopoly.jsonio import dumps17, open_sink, write_csv

finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.none() | st.booleans() | st.integers() | st.text() | finite
trees = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=20,
)
float_free = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
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
