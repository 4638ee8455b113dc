"""Property tests of the expression language and the CLI's exit codes.

Atoms stay small (chains of up to 8 elements and the named lattices) and
no expression reads a file, so every example runs in milliseconds.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from latkit import cli, evaluate, parse, render
from latkit.errors import LatticeError
from latkit.expr import Dilation, HSum, IHSum, NamedAtom, OSum

LABELS = ("0", "1", "a", "x", "e3")

atoms = st.one_of(
    st.builds(NamedAtom, st.just("chain"), st.integers(0, 8)),
    st.builds(NamedAtom, st.just("div"), st.integers(0, 12)),
    st.builds(NamedAtom, st.sampled_from(("B2", "M3", "N5", "K"))),
)

trees = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(OSum, sub, sub),
        st.builds(HSum, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(IHSum, sub, st.sampled_from(LABELS),
                  st.sampled_from(LABELS), sub),
        st.builds(Dilation, sub),
    ),
    max_leaves=4,
)

# Pieces of the grammar and a little noise. Integers are spaced so that
# two of them never run together into a larger parameter.
TOKENS = ("chain", "div", "B2", "M3", "N5", "K", "osum", "hsum", "ihsum",
          "D", "(", ")", ",", '"0"', '"1"', '"a"', '"', " ", "\\",
          "-", "é", "\n")
token_soup = st.lists(
    st.one_of(st.sampled_from(TOKENS), st.integers(0, 8).map(" {} ".format)),
    max_size=16,
).map("".join)

texts = st.one_of(token_soup, trees.map(render),
                  st.tuples(trees.map(render), st.integers(0, 40),
                            st.sampled_from(TOKENS))
                  .map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]))


@settings(max_examples=200, deadline=None)
@given(trees)
def test_parse_inverts_render(tree):
    assert parse(render(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(texts)
def test_text_evaluates_or_raises_a_lattice_error(text):
    try:
        lat = evaluate(parse(text))
    except LatticeError:
        return
    assert lat.n >= 1


@settings(max_examples=100, deadline=None)
@given(texts)
def test_analyze_exits_with_a_documented_code(text):
    # argparse ends a usage error (text starting with "-") by SystemExit(2).
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["analyze", text])
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2, 3)
