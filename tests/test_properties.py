"""Property tests of the expression language, the CLI's exit codes and
the JSON input.

Atoms stay small (chains of up to 8 elements and the named lattices) and
no expression reads a file, so every example runs in milliseconds. JSON
documents, arbitrary or shaped like a lattice file, either load or raise
a `LatticeError`, whether given as text or read through `file(...)`.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from latkit import Lattice, cli, evaluate, parse, render
from latkit.errors import LatticeError
from latkit.expr import Dilation, FileAtom, HSum, IHSum, NamedAtom, OSum

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


# JSON values of every kind; documents with an "elements" list and a
# "covers" list whose labels and pairs are sometimes of the wrong type;
# and well-typed documents over a few distinct labels, some of them
# lattices.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda sub: st.lists(sub, max_size=4)
    | st.dictionaries(st.text(max_size=8), sub, max_size=4),
    max_leaves=12,
)
LATTICE_LABELS = ("0", "1", "a", "b", "c")
label = st.sampled_from(LATTICE_LABELS) | json_values
lattice_docs = st.fixed_dictionaries(
    {"elements": st.lists(label, max_size=6),
     "covers": st.lists(st.lists(label, min_size=1, max_size=3)
                        | json_values, max_size=8)},
    optional={"name": json_values},
)


def _forward_covers(els):
    """Documents on the labels `els` with covers that point forward."""
    pairs = [[a, b] for i, a in enumerate(els) for b in els[i + 1:]]
    covers = st.lists(st.sampled_from(pairs), max_size=6) if pairs else st.just([])
    return st.fixed_dictionaries({"elements": st.just(els), "covers": covers})


well_typed_docs = st.lists(st.sampled_from(LATTICE_LABELS), min_size=1,
                           max_size=5, unique=True).flatmap(_forward_covers)
documents = st.one_of(
    json_values.map(json.dumps),
    lattice_docs.map(json.dumps),
    well_typed_docs.map(json.dumps),
    st.text(max_size=40),
    lattice_docs.map(json.dumps).map(lambda t: t[:len(t) // 2]),
)


def _loads_or_raises(load, text):
    try:
        lat = load(text)
    except LatticeError:
        return
    assert isinstance(lat, Lattice)
    assert lat.n == len(json.loads(text)["elements"])


@settings(max_examples=200, deadline=None)
@given(documents)
def test_json_text_loads_or_raises_a_lattice_error(text):
    _loads_or_raises(Lattice.from_json, text)


@settings(max_examples=60, deadline=None)
@given(documents)
def test_json_file_loads_or_raises_a_lattice_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lattice.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _loads_or_raises(lambda _: evaluate(parse(render(FileAtom(path)))),
                         text)
