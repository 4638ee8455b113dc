"""Independent brute-force oracles used as arbiters in the tests.

These deliberately avoid the library's enumeration strategies: partitions
are generated by recursive block extension and filtered by the congruence
predicate, filters/ideals by scanning every subset of the carrier,
irreducibility by scanning every pair of elements, and the census's
candidates are deduplicated by pairwise isomorphism tests. Exponential,
so callers keep carriers small.

The congruence engine has its own oracles, the algorithms it replaced:
principal congruences by worklist closure over a union-find, Con(L) as
the join-closure of the cover principal congruences, and its order by
partition refinement. The join-irreducible dependency relation D is
taken straight from its definition. The covers and coatoms of Con(L)
are checked against scans of the refinement order, and filter and ideal
primality against the join and meet conditions, pair by pair.
"""

from functools import reduce

from latkit import Lattice, Partition, is_congruence
from latkit.core import bits, mask_of
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


def _no_outside_pair_lands_inside(n, table, m):
    outside = [x for x in range(n) if not m >> x & 1]
    return not any(m >> table[x][y] & 1
                   for i, x in enumerate(outside) for y in outside[i:])


def prime_filter_by_join_condition(lat, elements):
    """True iff the filter is proper and x v y in it forces x or y in it."""
    m = mask_of(elements)
    return m != (1 << lat.n) - 1 and \
        _no_outside_pair_lands_inside(lat.n, lat.join_t, m)


def prime_ideal_by_meet_condition(lat, elements):
    """True iff the ideal is proper and x ^ y in it forces x or y in it."""
    m = mask_of(elements)
    return m != (1 << lat.n) - 1 and \
        _no_outside_pair_lands_inside(lat.n, lat.meet_t, m)


def divisor_lattice_by_trial_division(n):
    """(labels, up) of the divisors of n ordered by divisibility."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    up = tuple(sum(1 << j for j, e in enumerate(divisors) if e % d == 0)
               for d in divisors)
    return tuple(map(str, divisors)), up


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


# -- congruences ------------------------------------------------------------

def principal_by_worklist(lat, a, b):
    """Least congruence identifying a and b, by closing a union-find state
    under substitution into every meet and join."""
    n = lat.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    mt, jt = lat.meet_t, lat.join_t
    work = [(a, b)] if union(a, b) else []
    while work:
        x, y = work.pop()
        for table in (mt, jt):
            for u, v in zip(table[x], table[y]):
                if union(u, v):
                    work.append((u, v))
    return Partition(tuple(find(i) for i in range(n)))


def cover_principals(lat):
    return [principal_by_worklist(lat, i, j) for i, j in lat.cover_pairs]


def join_closure(n, gens):
    """Every join of the given congruences on n elements, in canonical
    order; for the cover principals this is Con(L), since every
    congruence is the join of the cover principals it contains."""
    members = {Partition.delta(n)}
    for g in set(gens):
        members |= {m.join(g) for m in members}
    return sorted(members, key=lambda p: (-p.num_blocks, p.block_of))


def refinement_rows(members):
    """Row i has bit j iff members[i] refines members[j]."""
    return tuple(sum(1 << j for j, q in enumerate(members) if p.leq(q))
                 for p in members)


def con_lattice_by_partitions(lat):
    """What ConLattice and is_simple report, computed on partitions alone."""
    gens = cover_principals(lat)
    ms = join_closure(lat.n, gens)
    order = refinement_rows(ms)
    delta, nabla = Partition.delta(lat.n), Partition.nabla(lat.n)
    nab = ms.index(nabla)
    con01 = [i for i, m in enumerate(ms)
             if m.singleton(lat.bottom) and m.singleton(lat.top)]
    proper = [m for m in ms if m != delta]
    mono = reduce(Partition.meet, proper) if proper else delta
    return {
        "members": ms,
        "order": order,
        "coatoms": [i for i in range(len(ms))
                    if i != nab and order[i] & ~(1 << i) == 1 << nab],
        "con01": con01,
        "mu": reduce(Partition.join, [ms[i] for i in con01], delta),
        "simple": lat.n >= 2 and all(g == nabla for g in gens),
        "si": (True, mono) if mono != delta else (False, None),
    }


def closed_sets_by_definition(lat):
    """Number of subsets S of J(lat) closed under D: k in S and j D k give
    j in S, where j D k iff j != k and some x has j <= k v x but not
    j <= k_ v x (k_ the lower cover of k).

    Enumerated by deciding the join-irreducibles one at a time: taking one
    in takes in everything it forces, leaving one out leaves out
    everything that forces it, so every leaf is a distinct closed set.
    """
    n, jt, leq = lat.n, lat.join_t, lat.leq
    below = [[i for i in range(n) if i != j and leq(i, j)] for j in range(n)]
    joins = [j for j in range(n)
             if sum(not any(leq(i, k) for k in below[j] if k != i)
                    for i in below[j]) == 1]
    lower = {j: max(below[j], key=lambda i: len(below[i])) for j in joins}
    forced = [
        [t for t, j in enumerate(joins)
         if j != k and any(leq(j, jt[k][x]) and not leq(j, jt[lower[k]][x])
                           for x in range(n))]
        for k in joins
    ]
    forcing = [[s for s in range(len(joins)) if t in forced[s]]
               for t in range(len(joins))]

    def spread(mask, t, edges):
        todo = [t]
        while todo:
            u = todo.pop()
            if not mask >> u & 1:
                mask |= 1 << u
                todo.extend(edges[u])
        return mask

    def count(inside, outside):
        free = ((1 << len(joins)) - 1) & ~(inside | outside)
        if not free:
            return 1
        t = (free & -free).bit_length() - 1
        return (count(spread(inside, t, forced), outside)
                + count(inside, spread(outside, t, forcing)))

    return count(0, 0)


def covers_by_order(con):
    """Pairs (i, j) with members[i] strictly below members[j] in con.order
    and no member strictly between; a scan over every triple."""
    order = con.order
    m = len(order)
    return [(i, j) for i in range(m) for j in range(m)
            if i != j and order[i] >> j & 1
            and not any(order[i] >> k & 1 and order[k] >> j & 1
                        for k in range(m) if k not in (i, j))]


def coatoms_by_order(con):
    """Members whose order row holds only themselves and nabla."""
    nab = con.nabla_ix
    return [i for i, row in enumerate(con.order)
            if i != nab and row & ~(1 << i) == 1 << nab]
