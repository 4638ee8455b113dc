"""An independent model of the lattices the cli workload names.

The cli oracles must not trust latkit to judge latkit's output, so this
module rebuilds each lattice the workload generator writes as an
expression: its labels (named exactly as latkit names them), its cover
pairs, and facts about it that are known in closed form, such as
|Con(chain(n))| = 2^(n-1). It covers the atoms chain, B2, M3, N5, K and
div and the ordinal and horizontal sums; dilations and interval sums are
described by their size only.
"""

from __future__ import annotations


class Shape:
    """A lattice written as a latkit expression, with what is known of it.

    `labels` and `covers` are None when only the size is modelled.
    `chain` is true when the lattice is a chain, `primes` is the number of
    prime filters (equal to the number of prime ideals) when known.
    """

    __slots__ = ("expr", "n", "labels", "covers", "chain", "primes",
                 "dilation", "bottom", "top")

    def __init__(self, expr, n, labels=None, covers=None, chain=False,
                 primes=None, dilation=False, bottom=None, top=None):
        self.expr = expr
        self.n = n
        self.labels = labels
        self.covers = covers
        self.chain = chain
        self.primes = primes
        self.dilation = dilation
        self.bottom = bottom
        self.top = top

    @property
    def con_size(self):
        """|Con| when known in closed form, else None."""
        if self.chain:
            return 2 ** (self.n - 1)
        if self.dilation:
            return 2
        return None

    def up_sets(self):
        """label -> set of labels above it (reflexive), from the covers."""
        above = {x: [] for x in self.labels}
        for lo, hi in self.covers:
            above[lo].append(hi)
        up = {}

        def visit(x):
            if x not in up:
                s = {x}
                for y in above[x]:
                    s |= visit(y)
                up[x] = s
            return up[x]

        for x in self.labels:
            visit(x)
        return up


def _chain_labels(k):
    if k == 1:
        return ["0"]
    if k == 2:
        return ["0", "1"]
    if k == 3:
        return ["0", "m", "1"]
    if k == 4:
        return ["0", "a", "b", "1"]
    return ["0"] + [f"m{i}" for i in range(1, k - 1)] + ["1"]


def chain(k):
    labels = _chain_labels(k)
    return Shape(f"chain({k})", k, labels, set(zip(labels, labels[1:])),
                 chain=True, primes=k - 1, bottom="0", top=labels[-1])


def _fixed(name, labels, covers, primes):
    return Shape(name, len(labels), list(labels), set(covers),
                 primes=primes, bottom=labels[0], top=labels[-1])


def B2():
    return _fixed("B2", ["0", "a", "b", "1"],
                  [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], 2)


def M3():
    return _fixed("M3", ["0", "u", "v", "w", "1"],
                  [("0", "u"), ("0", "v"), ("0", "w"),
                   ("u", "1"), ("v", "1"), ("w", "1")], 0)


def N5():
    return _fixed("N5", ["0", "x", "y", "z", "1"],
                  [("0", "x"), ("x", "1"), ("0", "y"), ("y", "z"),
                   ("z", "1")], 2)


def K():
    return _fixed("K", ["0", "m", "n", "p", "q", "1"],
                  [("0", "m"), ("m", "1"), ("0", "n"), ("n", "p"),
                   ("0", "q"), ("q", "p"), ("p", "1")], None)


def factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def div(n):
    """Divisor lattice, sized from the factorization; labels not modelled.

    It is distributive, so its prime filters are the principal filters of
    its join-irreducibles, the prime powers: one per unit of exponent.
    """
    exps = factorize(n).values()
    size = 1
    for e in exps:
        size *= e + 1
    return Shape(f"div({n})", size, primes=sum(exps))


def osum(lower, upper):
    """Ordinal sum, labelled as latkit labels it: 0.x below, 1.y above."""
    glue = f"0.{lower.top}"
    lmap = {x: f"0.{x}" for x in lower.labels}
    umap = {y: f"1.{y}" for y in upper.labels}
    umap[upper.bottom] = glue
    labels = [lmap[x] for x in lower.labels]
    labels += [umap[y] for y in upper.labels if y != upper.bottom]
    covers = {(lmap[a], lmap[b]) for a, b in lower.covers}
    covers |= {(umap[a], umap[b]) for a, b in upper.covers}
    is_chain = lower.chain and upper.chain
    return Shape(f"osum({lower.expr},{upper.expr})", len(labels), labels,
                 covers, chain=is_chain,
                 primes=len(labels) - 1 if is_chain else None,
                 bottom=lmap[lower.bottom], top=umap[upper.top])


def hsum(*family):
    """Horizontal sum of summands with more than two elements each.

    Two summands A, B give exactly two prime filters when A's bottom is
    meet-irreducible and B's top join-irreducible and vice versa, which
    holds for chains; three or more summands give none.
    """
    labels = ["0"]
    covers = set()
    for i, s in enumerate(family):
        if s.n <= 2:
            raise ValueError("two-element summands are absorbed; not modelled")
        m = {x: f"{i}.{x}" for x in s.labels}
        m[s.bottom] = "0"
        m[s.top] = "1"
        labels += [m[x] for x in s.labels if x not in (s.bottom, s.top)]
        covers |= {(m[a], m[b]) for a, b in s.covers}
    labels.append("1")
    if len(family) >= 3:
        primes = 0
    elif all(s.chain for s in family):
        primes = 2
    else:
        primes = None
    expr = f"hsum({','.join(s.expr for s in family)})"
    return Shape(expr, len(labels), labels, covers, primes=primes,
                 bottom="0", top="1")


def fat_interval_count(s):
    """Pairs a < b that are not covers: the intervals a dilation fills."""
    up = s.up_sets()
    comparable = sum(len(v) - 1 for v in up.values())
    return comparable - len(s.covers)


def dilate(s):
    return Shape(f"D({s.expr})", s.n + 2 * fat_interval_count(s),
                 dilation=True)


def ihsum(base, low, high, insert):
    return Shape(f'ihsum({base.expr},"{low}","{high}",{insert.expr})',
                 base.n + insert.n - 2)


def degree_profile(s):
    """Sorted (|up-set|, |down-set|) pairs: equal for isomorphic lattices."""
    up = s.up_sets()
    down = {x: 0 for x in s.labels}
    for x, above in up.items():
        for y in above:
            down[y] += 1
    return sorted((len(up[x]), down[x]) for x in s.labels)


def is_order_isomorphism(a, b, mapping):
    """True iff `mapping` (label -> label) is a bijection a -> b that
    preserves and reflects the order."""
    if sorted(mapping) != sorted(a.labels):
        return False
    if sorted(mapping.values()) != sorted(b.labels):
        return False
    ua, ub = a.up_sets(), b.up_sets()
    return all(
        (y in ua[x]) == (mapping[y] in ub[mapping[x]])
        for x in a.labels for y in a.labels
    )
