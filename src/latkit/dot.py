"""DOT output for order diagrams (lattices and congruence lattices)."""

from __future__ import annotations

from .equiv import block_renderer


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def hasse_dot(labels, cover_pairs, title: str = "L") -> str:
    """Hasse diagram as DOT text: edges point upward along covers."""
    lines = [f'digraph "{_esc(title)}" {{', "  rankdir=BT;", "  node [shape=box];"]
    for lab in labels:
        lines.append(f'  "{_esc(lab)}";')
    for a, b in sorted(cover_pairs):
        lines.append(f'  "{_esc(a)}" -> "{_esc(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_dot(lat) -> str:
    pairs = [(lat.labels[i], lat.labels[j]) for i, j in lat.cover_pairs]
    return hasse_dot(lat.labels, pairs, title=lat.name or "L")


def con_dot(con) -> str:
    """Hasse diagram of a ConLattice, nodes labelled by block notation."""
    names = list(map(block_renderer(con.base.labels), con.block_maps))
    pairs = [(names[i], names[j]) for i, j in con.covers()]
    title = f"Con({con.base.name})" if con.base.name else "Con"
    return hasse_dot(names, pairs, title=title)
