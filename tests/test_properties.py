"""Property tests of the expression language, the CLI's exit codes, the
JSON input and `Lattice()` validation.

Atoms stay small (chains of up to 8 elements, the named lattices and a
5-element lattice file), so every example runs in milliseconds. Each
evaluated lattice is named by its expression. Parsing is held to the
eager tokenizer and parser of `oracles`, and to `render` over trees
nested up to `MAX_DEPTH` whose labels and paths are any text. JSON
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

from hypothesis import HealthCheck, example, given, settings, strategies as st

from latkit import Lattice, cli, evaluate, fat_intervals, parse, render
from latkit.errors import ArityError, ExprSyntaxError, LatticeError
from latkit.expr import (MAX_DEPTH, Dilation, FileAtom, HSum, IHSum,
                         NamedAtom, OSum)
from latkit.verify import _ATOM_POOL

from oracles import parse_eagerly, tokenize_eagerly, validated_eagerly

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
          "-", "é", "²", "\n")
token_soup = st.lists(
    st.one_of(st.sampled_from(TOKENS), st.integers(0, 8).map(" {} ".format)),
    max_size=16,
).map("".join)

texts = st.one_of(token_soup, trees.map(render),
                  st.tuples(trees.map(render), st.integers(0, 40),
                            st.sampled_from(TOKENS))
                  .map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]))


def _depth(node):
    kids = node.args if isinstance(node, HSum) else [
        v for v in vars(node).values()
        if not isinstance(v, (str, int, type(None)))]
    return 1 + max(map(_depth, kids), default=0)


text_atoms = atoms | st.builds(FileAtom, st.text())
text_trees = st.recursive(
    text_atoms,
    lambda sub: st.one_of(
        st.builds(OSum, sub, sub),
        st.builds(HSum, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(IHSum, sub, st.text(), st.text(), sub),
        st.builds(Dilation, sub),
    ),
    max_leaves=4,
).filter(lambda t: _depth(t) <= MAX_DEPTH)


@st.composite
def deep_trees(draw):
    """A tree of `text_trees` under a tower of constructions, each with an
    atom beside it, nested up to `MAX_DEPTH` in all."""
    node = draw(text_trees)
    room = MAX_DEPTH - _depth(node)
    for _ in range(draw(st.integers(0, room) | st.just(room))):
        wrap = draw(st.sampled_from((Dilation, OSum, HSum, IHSum)))
        if wrap is Dilation:
            node = Dilation(node)
        elif wrap is IHSum:
            node = IHSum(node, draw(st.text()), draw(st.text()),
                         draw(text_atoms))
        else:
            pair = (node, draw(text_atoms))[::draw(st.sampled_from((1, -1)))]
            node = OSum(*pair) if wrap is OSum else HSum(pair)
    return node


@settings(max_examples=100, deadline=None)
@given(deep_trees())
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


@st.composite
def evaluable_trees(draw, file_atom, depth=3):
    """Trees that evaluate: the shapes `verify._random_expr` draws (its
    atoms, ordinal sums, horizontal sums of two or three), `file_atom`,
    dilations of lattices of up to 6 elements, and interval sums on a fat
    interval of their base."""
    kinds = ("atom", "osum", "hsum", "ihsum", "D") if depth else ("atom",)
    kind = draw(st.sampled_from(kinds))
    sub = evaluable_trees(file_atom, depth - 1)
    if kind == "atom":
        return draw(st.sampled_from([NamedAtom(*a) for a in _ATOM_POOL])
                    | st.just(file_atom))
    if kind == "osum":
        return OSum(draw(sub), draw(sub))
    if kind == "hsum":
        return HSum(tuple(draw(st.lists(sub, min_size=2, max_size=3))))
    arg = draw(sub)
    lat = evaluate(arg)
    if kind == "D":
        return Dilation(arg) if lat.n <= 6 else arg
    fats, insert = fat_intervals(lat), draw(sub)
    if not fats or evaluate(insert).n <= 2:
        return arg
    a, b = draw(st.sampled_from(fats))
    return IHSum(arg, lat.labels[a], lat.labels[b], insert)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_lattice_is_named_by_its_expression(tmp_path, data):
    # the file's labels hold a quote, a backslash, a comma and a ")"
    labels = ["0", 'a"b', "c\\d", "e,)f", "1"]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"elements": labels, "covers": [
        ["0", 'a"b'], ['a"b', "c\\d"], ["c\\d", "1"], ["0", "e,)f"],
        ["e,)f", "1"]]}))
    tree = data.draw(evaluable_trees(FileAtom(str(path))))
    lat = evaluate(tree)
    assert lat.name == render(tree)
    assert parse(lat.name) == tree


# Grammar words, punctuation, quotes, backslashes, whitespace (a no-break
# space among it) and characters that are no token or only part of one.
PIECES = ("osum", "hsum", "ihsum", "D", "chain", "div", "file", "B2", "M3",
          "N5", "K", "x_1", "(", ")", ",", '"', "\\", " ", "\t", "\n",
          "\u00a0", "0", "12", "\u00b2", "\u0663", "\u2460", "\u00e9", "@",
          "\x00")
scanner_texts = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=24).map("".join),
    texts,
    st.tuples(text_trees.map(render), st.integers(0, 60),
              st.sampled_from(PIECES))
    .map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]),
)


def _outcome(parse_text, text):
    try:
        return parse_text(text)
    except LatticeError as e:
        return type(e), str(e)


@settings(max_examples=1000, deadline=None)
@given(scanner_texts)
@example("osum(B2) B2 @")  # the arity fault comes first
@example("B2) @")
def test_parse_matches_the_eager_parser(text):
    got = _outcome(parse, text)
    try:
        tokenize_eagerly(text)
    except ExprSyntaxError as fault:
        # The eager parser stops on the lexical fault; parse reads in order
        # and stops there too, or on a fault of the tokens before it.
        assert isinstance(got, tuple), got
        if got == (ExprSyntaxError, str(fault)):
            return
        if got[0] is ArityError:
            assert got == _outcome(parse_eagerly, text[:fault.position - 1])
            return
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.position < fault.position
        return
    assert got == _outcome(parse_eagerly, text)


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


@st.composite
def up_masks(draw):
    """Up-mask tuples on up to 7 elements: raw masks (often not reflexive,
    sometimes out of range), reflexive relations (often not transitive),
    closed relations (often cyclic), orders, bounded or not, and bounded
    orders with a planted bowtie, which often lack a join. Orders are
    drawn on a linear extension and then relabelled."""
    kind = draw(st.sampled_from(("raw", "reflexive", "closed", "order",
                                 "bounded", "bowtie")))
    n = draw(st.integers(6 if kind == "bowtie" else 1, 7))
    full = (1 << n) - 1
    if kind == "raw":
        return tuple(draw(st.lists(st.integers(0, 2 * full + 1),
                                   min_size=n, max_size=n)))
    up = draw(st.lists(st.integers(0, full), min_size=n, max_size=n))
    if kind in ("order", "bounded", "bowtie"):  # sparse and acyclic
        sparse = draw(st.lists(st.integers(0, full), min_size=n, max_size=n))
        up = [m & s & -(1 << i) for i, (m, s) in enumerate(zip(up, sparse))]
    if kind == "bowtie":  # a, b below both c and d: often no join
        a, b, c, d = draw(st.lists(st.integers(1, n - 2), min_size=4,
                                   max_size=4, unique=True).map(sorted))
        up[a] |= 1 << c | 1 << d
        up[b] |= 1 << c | 1 << d
    if kind in ("bounded", "bowtie"):
        up = [full] + [m | 1 << (n - 1) for m in up[1:]]
    up = [m | 1 << i for i, m in enumerate(up)]
    if kind == "reflexive":
        return tuple(up)
    for k in range(n):  # Warshall: close transitively
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    perm = draw(st.permutations(range(n)))
    out = [0] * n
    for i, m in enumerate(up):
        for j in range(n):
            if m >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)


@settings(max_examples=500, deadline=None)
@given(up_masks())
def test_validation_raises_what_the_eager_build_raises(up):
    labels = [f"e{i}" for i in range(len(up))]
    try:
        want = validated_eagerly(labels, up)
    except LatticeError as e:
        with pytest.raises(LatticeError) as got:
            Lattice(labels, up)
        assert type(got.value) is type(e)
        assert str(got.value) == str(e)
        return
    lat = Lattice(labels, up)
    for table, value in want.items():
        assert getattr(lat, table) == value, table
