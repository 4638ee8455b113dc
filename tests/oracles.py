"""Independent brute-force oracles used as arbiters in the tests.

These deliberately avoid the library's enumeration strategies: partitions
are generated by recursive block extension and filtered by the congruence
predicate, filters/ideals by scanning every subset of the carrier,
irreducibility by scanning every pair of elements, and the census's
candidates are deduplicated by pairwise isomorphism tests. Exponential,
so callers keep carriers small.
"""

from latkit import Lattice, Partition, is_congruence
from latkit.core import bits
from latkit.verify import _census_candidates, _invariants, _isomorphism


def iter_partitions(n):
    """Every partition of {0..n-1}, as a Partition value."""
    def rec(k):
        if k == 0:
            yield []
            return
        for blocks in rec(k - 1):
            elem = k - 1
            yield blocks + [[elem]]
            for i in range(len(blocks)):
                yield blocks[:i] + [blocks[i] + [elem]] + blocks[i + 1:]

    for blocks in rec(n):
        yield Partition.from_blocks(n, blocks)


def congruences_by_exhaustion(lat):
    """All congruences found by filtering every partition of the carrier."""
    return {p for p in iter_partitions(lat.n) if is_congruence(lat, p)}


def filters_by_exhaustion(lat):
    """All filters found by scanning every subset containing the top."""
    n = lat.n
    up = lat.up
    mt = lat.meet_t
    top_bit = 1 << lat.top
    out = set()
    for half in range(1 << (n - 1) if n else 0):
        # force the top element in; weave the remaining bits around it
        m = ((half >> lat.top) << (lat.top + 1)) | (half & (top_bit - 1)) | top_bit
        ok = True
        for x in bits(m):
            if up[x] & ~m:
                ok = False
                break
        if not ok:
            continue
        elems = list(bits(m))
        for i, x in enumerate(elems):
            row = mt[x]
            for y in elems[i:]:
                if not (m >> row[y]) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(frozenset(elems))
    return out


def ideals_by_exhaustion(lat):
    n = lat.n
    down = lat.down
    jt = lat.join_t
    bot_bit = 1 << lat.bottom
    out = set()
    for half in range(1 << (n - 1) if n else 0):
        m = ((half >> lat.bottom) << (lat.bottom + 1)) | (half & (bot_bit - 1)) | bot_bit
        ok = True
        for x in bits(m):
            if down[x] & ~m:
                ok = False
                break
        if not ok:
            continue
        elems = list(bits(m))
        for i, x in enumerate(elems):
            row = jt[x]
            for y in elems[i:]:
                if not (m >> row[y]) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(frozenset(elems))
    return out


def _no_pair_gives(table, x):
    n = len(table)
    return not any(table[u][v] == x
                   for u in range(n) for v in range(u + 1, n)
                   if x not in (u, v))


def meet_irreducible_by_pairs(lat, x):
    """True iff x = u ^ v forces x in {u, v}; exhaustive pair scan."""
    return _no_pair_gives(lat.meet_t, x)


def join_irreducible_by_pairs(lat, x):
    """True iff x = u v v forces x in {u, v}; exhaustive pair scan."""
    return _no_pair_gives(lat.join_t, x)


def census_by_pairwise_iso(max_n):
    """The census deduplicated by invariant buckets and pairwise isomorphism.

    Same candidates and naming as `enumerate_lattices`; a candidate is kept
    when no earlier member of its invariant bucket is isomorphic to it.
    Invariants are computed once per lattice.
    """
    out = [Lattice(("e0",), (1,), name="census(1)#0")]
    for n in range(2, max_n + 1):
        found = []
        buckets = {}
        for lat in _census_candidates(n):
            inv = _invariants(lat)
            bucket = buckets.setdefault(tuple(sorted(inv)), [])
            if any(_isomorphism(lat, seen, inv, seen_inv) is not None
                   for seen, seen_inv in bucket):
                continue
            lat = lat.renamed(f"census({n})#{len(found)}")
            bucket.append((lat, inv))
            found.append(lat)
        out.extend(found)
    return out
