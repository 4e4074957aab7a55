"""Fuzz the expression parser and the vector-field loader.

Every input either succeeds or fails with a documented exit code and a
one-line message, never with a traceback.  Texts have at most 12 tokens and
exponents at most 3, so no generated input can ask for a large expansion.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from grs import io as gio
from grs.algebra import AlgebraError, Context, MRat, parse_rat
from grs.cli import main

_ATOMS = ["x", "y", "t", "a", "zeta", "0", "1", "2", "3"]
_TOKENS = _ATOMS + ["+", "-", "*", "/", "^", "**", "(", ")", "^-", "$", "\n"]

# token soup: mostly malformed text
_soup = st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join)


def _combine(parts):
    return st.one_of(
        st.tuples(parts, st.sampled_from(["+", "-", "*", "/"]), parts).map(" ".join),
        parts.map(lambda p: f"({p})"),
        st.tuples(parts, st.sampled_from(["^2", "^3", "^-1"])).map(lambda p: f"({p[0]}){p[1]}"))


# well-formed expressions, cut to 12 tokens
_grammar = st.recursive(st.sampled_from(_ATOMS), _combine, max_leaves=4).filter(
    lambda text: len(text.replace("(", " ( ").replace(")", " ) ").split()) <= 12)

_texts = _grammar | _soup

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["chart", "dxdt", "dydt", "model", "n", "twist", "symbols",
                         "params", "name", "kind"]), inner, max_size=4),
    max_leaves=8)

_symbols = st.lists(st.fixed_dictionaries({
    "name": st.sampled_from(["x", "y", "t", "a", "n1", "1x", ""]),
    "kind": st.sampled_from(["fiber", "time", "parameter", "unknown", "bogus"])}), max_size=5)

_ABSENT = object()


@st.composite
def _documents(draw):
    """A vector-field document with at most one field replaced or dropped,
    or now and then any JSON value or raw bytes in place of the document."""
    shape = draw(st.sampled_from(["document"] * 8 + ["json", "bytes"]))
    if shape == "json":
        return gio.dumps(draw(_json)).encode()
    if shape == "bytes":
        return draw(st.binary(max_size=20))
    doc = {"chart": draw(st.sampled_from(["U0", "U1", "U2", "U3", "U9"]) | _texts),
           "dxdt": draw(_texts), "dydt": draw(_texts),
           "model": {"n": draw(st.integers(-1, 3)),
                     "twist": draw(st.lists(_texts, max_size=2))}}
    if draw(st.booleans()):
        doc["symbols"] = draw(_symbols)
    if draw(st.booleans()):
        doc["params"] = draw(st.lists(st.sampled_from(["a", "b", "x", "1"]), max_size=3))
    key = draw(st.sampled_from([None, "chart", "dxdt", "dydt", "model", "symbols", "params"]))
    if key is not None:
        value = draw(st.just(_ABSENT) | _json)
        if value is _ABSENT:
            doc.pop(key, None)
        else:
            doc[key] = value
    return gio.dumps(doc).encode()


@settings(max_examples=300, deadline=None)
@given(_texts)
def test_parse_rat_returns_or_raises_an_algebra_error(text):
    ctx = Context.make(parameters=["a"])
    try:
        assert isinstance(parse_rat(ctx, text), MRat)
    except AlgebraError as exc:
        assert "\n" not in str(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=_documents(), fmt=st.sampled_from(["pretty", "json"]))
def test_show_system_file_exits_with_a_documented_code(tmp_path_factory, document, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz_vf.json"
    path.write_bytes(document)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["show", "--system", str(path), "--format", fmt])
    assert code in (0, 1, 2, 3)
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    if code == 0:
        assert stderr == "" and out.getvalue()
    else:
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
