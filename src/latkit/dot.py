"""DOT output for order diagrams (lattices and congruence lattices)."""

from __future__ import annotations

from itertools import count

from .core import _quote


def hasse_dot(labels, cover_pairs, title: str = "L") -> str:
    """Hasse diagram as DOT text: edges point upward along covers. Each
    label is quoted once, though a Con diagram's edges name each of its
    long block-notation labels several times."""
    quoted = {lab: _quote(lab) for lab in labels}
    lines = [f"digraph {_quote(title)} {{", "  rankdir=BT;", "  node [shape=box];"]
    lines += [f"  {quoted[lab]};" for lab in labels]
    lines += [f"  {quoted[a]} -> {quoted[b]};" for a, b in sorted(cover_pairs)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_dot(lat) -> str:
    pairs = [(lat.labels[i], lat.labels[j]) for i, j in lat.cover_pairs]
    return hasse_dot(lat.labels, pairs, title=lat.name or "L")


def con_dot(con) -> str:
    """Hasse diagram of a ConLattice, nodes labelled by block notation.

    The listing is rendered with each member ended by a character in no
    label and none of `,{}`, and split there, so that a label holding
    "\n" stays inside one name."""
    used = set(",{}" + "".join(con.labels))
    end = next(c for c in map(chr, count(10)) if c not in used)
    names = "".join(con.line_chunks(end)).split(end)
    names.pop()  # the empty text after the last member
    pairs = [(names[i], names[j]) for i, j in con.covers()]
    title = f"Con({con.name})" if con.name else "Con"
    return hasse_dot(names, pairs, title=title)
