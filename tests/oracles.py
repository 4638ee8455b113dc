"""Independent brute-force oracles used as arbiters in the tests.

These deliberately avoid the library's enumeration strategies: partitions
are generated by recursive block extension and filtered by the congruence
predicate, filters/ideals by scanning every subset of the carrier,
irreducibility by scanning every pair of elements, and the census is
every labelled lattice on n points, deduplicated by pairwise isomorphism
tests. The census's coatom extensions are checked against `Lattice()`
acceptance, and its classes against `_certificate`, an isomorphism key
of its own. The census that keeps only the children whose new coatom
has the greatest invariant is checked against `census_keying_every_child`,
the generator it replaced, which keys every child and validates every
class. Its keying is `least_lows_by_rebuilt_codes`, the search that
`_search` replaced, which rebuilds each candidate's code at every
node, and its up masks come from `up_of_lows`, which gathers each
element's upper positions in turn. Each child's order masks come from
`child_masks`, the build the census replaced when it began to hand each
parent's search tables down to its children. Exponential, so callers
keep carriers small.

`isomorphic`, whose colours start from cover counts and the sizes of
each element's up- and downset, is checked against `_isomorphism` under
`invariants_by_heights`, the colours it replaced, which start from
heights and depths; and its promise of the lexicographically least
isomorphism against `least_isomorphism_by_permutations`.

The congruence engine has its own oracles, the algorithms it replaced:
principal congruences by worklist closure over a union-find, Con(L) as
the join-closure of the cover principal congruences, and its order by
partition refinement. The join-irreducible dependency relation D is
taken straight from its definition. The covers and coatoms of Con(L)
are checked against scans of the refinement order, the prime congruences
against a cubic scan over the table of member meets, and filter primality
against the join condition, pair by pair. The ideal-side oracles (ideals,
prime ideals, join irreducibility) are the filter-side ones applied to
`lat.dual()`, which is itself checked against `Lattice()` validation.

`is_filter` and `generated_filter`, which read the order masks, are
checked against the meet folds they replaced (`is_filter_by_meet_fold`,
`generated_filter_by_meet_fold`), which fold the meet of a set through
`meet_t`; their ideal twins against the same folds on `lat.dual()`.

`Lattice()` validation, which makes one join lookup per incomparable pair
and builds the meet and join tables on first read, is checked against
`validated_eagerly`, the eager build it replaced: the same exception for
every input, and the same tables for every lattice.

`congruence._closures`, which reads D off the arrow relations, is
checked against `closures_by_join_table`, its reading of the whole join
table. The product pass of the horizontal-sum checks, which checks the
Con01 order isomorphism on each summand, comparing every pair of the
summand's Con01 members through `ConLattice.leq`, is checked against
`con01_order_problems_by_pairs`, the comparison of every pair of Con01(H)
members that it replaced.

`cover_pairs`, which drops the upset of each element it tests, is checked
against the scan it replaced, which tests every comparable pair.
`fat_intervals`, which reads an interval's size from the order masks, is
checked against `fat_intervals_by_covers`, the cover-set rule it replaced.

`named` chains and divisor lattices are checked against the build they
replaced, which closes label covers (consecutive chain labels, divisors
with a prime quotient) through `Lattice.from_covers`. So are the ordinal
and horizontal sums, whose old builds name every summand element by its
result label and close the label covers the same way. They return the
provenance as the raw label -> sources dict.

`Lattice.from_covers`, which closes the declared order along a
`graphlib` topological order, is checked against `from_covers_by_dfs`,
the iterative depth-first search it replaced: the same order tables, or
the same exception and message, for every declaration.

`parse`, which scans one token at a time as the parser asks for it, is
checked against `parse_eagerly`, the parser it replaced, which tokenizes
the whole text first (`tokenize_eagerly`) and then descends the token
list.
"""

from functools import reduce
from itertools import permutations
from math import isqrt

from latkit import Lattice, Partition, all_congruences, is_congruence
from latkit.construct import _display, hsum_congruences
from latkit.expr import (MAX_DEPTH, Dilation, FileAtom, HSum, IHSum,
                         NamedAtom, OSum)
from latkit.core import _chain_labels, _check_labels, bits, mask_of
from latkit.filters import FamilyMember
from latkit.errors import (
    ArityError,
    BadInput,
    CycleDetected,
    EmptyFamily,
    ExprSyntaxError,
    LatticeError,
    NoBounds,
    NotALattice,
    TrivialSummand,
    UnknownLabel,
)
from latkit.verify import _coatom_extensions, _invariants, _isomorphism


def from_covers_by_dfs(labels, covers, name=""):
    """`Lattice.from_covers` by an iterative depth-first search from each
    element in index order, along the covers in declared order, that
    names the first element it meets again on its own stack as the cycle."""
    labels = tuple(labels)
    _check_labels(labels)
    ix = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    adj = [[] for _ in range(n)]
    for a, b in covers:
        if a not in ix:
            raise UnknownLabel(f"cover endpoint {a!r} is not an element")
        if b not in ix:
            raise UnknownLabel(f"cover endpoint {b!r} is not an element")
        adj[ix[a]].append(ix[b])
    up = [0] * n
    state = [0] * n  # 0 unseen, 1 on stack, 2 closed
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, 0)]
        while stack:
            node, k = stack[-1]
            if k < len(adj[node]):
                stack[-1] = (node, k + 1)
                nxt = adj[node][k]
                if state[nxt] == 1:
                    raise CycleDetected(
                        f"declared covers cycle through {labels[nxt]!r}"
                    )
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, 0))
            else:
                m = 1 << node
                for s in adj[node]:
                    m |= up[s]
                up[node] = m
                state[node] = 2
                stack.pop()
    return Lattice(labels, up, name=name)


def validated_eagerly(labels, up):
    """The order tables of `Lattice(labels, up)`, as a dict, from the eager
    validation that fills both operation tables pair by pair, or the
    exception it raises."""
    labels = tuple(labels)
    up = tuple(up)
    n = len(labels)
    if n == 0:
        raise NoBounds("empty carrier")
    _check_labels(labels)
    if len(up) != n:
        raise BadInput("labels and up masks differ in length")
    full = (1 << n) - 1
    for i in range(n):
        row = up[i]
        if row & ~full:
            raise BadInput("up mask references out-of-range elements")
        if not (row >> i) & 1:
            raise NotALattice(labels[i], labels[i], "order not reflexive")
    for i in range(n):
        for j in bits(up[i]):
            if j != i and (up[j] >> i) & 1:
                raise CycleDetected(
                    f"{labels[i]!r} and {labels[j]!r} are mutually comparable"
                )
            if up[j] & ~up[i]:
                raise NotALattice(labels[i], labels[j], "order not transitive")
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NoBounds(
            f"need unique bottom and top, found {len(bottoms)} bottom(s) "
            f"and {len(tops)} top(s)"
        )
    up_id = {up[i]: i for i in range(n)}
    down_id = {down[i]: i for i in range(n)}
    meet_t = [[0] * n for _ in range(n)]
    join_t = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            k = up_id.get(up[i] & up[j])
            if k is None:
                raise NotALattice(labels[i], labels[j], "no unique least upper bound")
            join_t[i][j] = join_t[j][i] = k
            meet_t[i][j] = meet_t[j][i] = down_id.get(down[i] & down[j])
    return {"down": tuple(down), "meet_t": tuple(map(tuple, meet_t)),
            "join_t": tuple(map(tuple, join_t)), "bottom": bottoms[0],
            "top": tops[0]}


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
    """All ideals: the filters of the dual."""
    return filters_by_exhaustion(lat.dual())


def prime_filter_by_join_condition(lat, elements):
    """True iff the filter is proper and x v y in it forces x or y in it."""
    m = mask_of(elements)
    outside = [x for x in range(lat.n) if not m >> x & 1]
    jt = lat.join_t
    return m != (1 << lat.n) - 1 and not any(
        m >> jt[x][y] & 1 for i, x in enumerate(outside) for y in outside[i:])


def prime_ideal_by_meet_condition(lat, elements):
    """True iff the ideal is proper and x ^ y in it forces x or y in it:
    the join condition on the dual."""
    return prime_filter_by_join_condition(lat.dual(), elements)


def is_filter_by_meet_fold(lat, subset):
    """Whether the in-range non-empty `subset` is the upset of its meet,
    folded through `meet_t`."""
    s = set(subset)
    if not s or min(s) < 0 or max(s) >= lat.n:
        return False
    return lat.up[reduce(lat.meet, s)] == mask_of(s)


def generated_filter_by_meet_fold(lat, gens):
    """The upset of the meet of `gens`, folded through `meet_t`."""
    return frozenset(bits(lat.up[reduce(lat.meet, gens)]))


def family_eagerly(lat, kind):
    """The members of all_filters(lat) ("filter") or all_ideals(lat)
    ("ideal"), each built at once: the upsets (downsets) by generator,
    primality by the pair scans."""
    if kind == "filter":
        masks, prime = lat.up, prime_filter_by_join_condition
    else:
        masks, prime = lat.down, prime_ideal_by_meet_condition
    return tuple(FamilyMember(frozenset(bits(m)), x, prime(lat, bits(m)))
                 for x, m in enumerate(masks))


def divisor_lattice_by_trial_division(n):
    """(labels, up) of the divisors of n ordered by divisibility."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    up = tuple(sum(1 << j for j, e in enumerate(divisors) if e % d == 0)
               for d in divisors)
    return tuple(map(str, divisors)), up


def _is_prime(k):
    return k >= 2 and all(k % d for d in range(2, isqrt(k) + 1))


def named_by_covers(kind, k):
    """`named("chain", k)` or `named("div", k)` as label covers closed by
    `Lattice.from_covers`: consecutive chain labels, and divisors whose
    quotient is prime."""
    if kind == "chain":
        labels = _chain_labels(k)
        covers = list(zip(labels, labels[1:]))
    else:
        divisors = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
        divisors += [k // d for d in reversed(divisors) if d * d != k]
        labels = [str(d) for d in divisors]
        covers = [(str(d), str(e)) for d in divisors for e in divisors
                  if e % d == 0 and _is_prime(e // d)]
    return Lattice.from_covers(labels, covers, name=f"{kind}({k})")


def cover_pairs_by_scan(lat):
    """`lat.cover_pairs` by testing every comparable pair for an element
    strictly between."""
    out = []
    for i in range(lat.n):
        for j in bits(lat.up[i] & ~(1 << i)):
            between = lat.up[i] & lat.down[j] & ~(1 << i) & ~(1 << j)
            if not between:
                out.append((i, j))
    return tuple(out)


def fat_intervals_by_covers(lat):
    """`fat_intervals` as the comparable pairs a < b that are not covers."""
    cover = set(lat.cover_pairs)
    out = []
    for a in range(lat.n):
        for b in bits(lat.up[a] & ~(1 << a)):
            if (a, b) not in cover:
                out.append((a, b))
    return out


def meet_irreducible_by_pairs(lat, x):
    """True iff x = u ^ v forces x in {u, v}; exhaustive pair scan."""
    n, mt = lat.n, lat.meet_t
    return not any(mt[u][v] == x
                   for u in range(n) for v in range(u + 1, n)
                   if x not in (u, v))


def join_irreducible_by_pairs(lat, x):
    """True iff x = u v v forces x in {u, v}: meet irreducibility in the dual."""
    return meet_irreducible_by_pairs(lat.dual(), x)


def _census_candidates(n: int):
    """Every lattice on e0..e{n-1} with the index order as a linear extension.

    Elements are added in linear-extension order with down-closed lower
    sets; each candidate is validated and the rejected ones are dropped.
    Candidates come in lexicographic order of (lows[1], ..., lows[n-2]).
    """
    labels = tuple(f"e{i}" for i in range(n))
    lows = [0] * n  # lows[j]: bitmask of elements strictly below j

    def rec(j):
        if j == n - 1:
            lows[j] = (1 << (n - 1)) - 1  # top lies above everything
            up = []
            for i in range(n):
                row = 1 << i
                for k in range(i + 1, n):
                    if (lows[k] >> i) & 1:
                        row |= 1 << k
                up.append(row)
            try:
                lat = Lattice(labels, up)
            except LatticeError:
                return
            yield lat
            return
        for extra in range(1 << max(j - 1, 0)):
            s = (extra << 1) | 1  # bottom is below every later element
            if any(lows[i] & ~s for i in bits(s)):
                continue  # not down-closed
            lows[j] = s
            yield from rec(j + 1)

    return rec(1)


def coatom_children_by_validation(lat):
    """Up masks of every lattice that is `lat` plus a new coatom.

    `lat` is labelled along a linear extension with its top last. Every
    subset of the non-top elements that holds the bottom is scanned; a
    down-closed one D gives the order with a new coatom above exactly D
    (at the old top's index, the top one up), and it is kept when
    `Lattice()` accepts it. Returns (children, number of down-closed D).
    """
    m = lat.n
    labels = tuple(f"e{i}" for i in range(m + 1))
    top = 1 << m
    kept, tried = [], 0
    for d in range(1, 1 << (m - 1), 2):
        if any(lat.down[x] & ~d for x in bits(d)):
            continue
        tried += 1
        up = [(lat.up[i] & ~(1 << (m - 1))) | top for i in range(m - 1)]
        for i in bits(d):
            up[i] |= 1 << (m - 1)
        up += [(1 << (m - 1)) | top, top]
        try:
            Lattice(labels, up)
        except LatticeError:
            continue
        kept.append(tuple(up))
    return kept, tried


def _certificate(lat, colours):
    """Exact isomorphism key of `lat`, given its `_invariants` colours.

    The key is the sorted colours plus the lexicographically least
    relation matrix over every relabelling that puts the elements in
    colour order. The matrix is read position by position: entry i codes
    how the element placed at i compares with those placed before it.
    Two lattices get equal keys exactly when they are isomorphic.

    Backtracking fills positions in order. At each one it follows only
    the candidates of least code, since any colour-respecting prefix
    can be completed, and it drops a prefix that already exceeds the
    best matrix found.
    """
    n = lat.n
    palette = sorted(colours)
    pool = {}
    for x in range(n):
        pool.setdefault(colours[x], []).append(x)
    up, down = lat.up, lat.down
    placed = [0] * n
    code = [0] * n
    best = None

    def rec(i, used):
        nonlocal best
        if i == n:
            best = code[:]
            return
        codes = {}
        for x in pool[palette[i]]:
            if (used >> x) & 1:
                continue
            c = 0
            for k in range(i):
                p = placed[k]
                c |= (((up[p] >> x) & 1) | ((down[p] >> x) & 1) << 1) << (2 * k)
            codes.setdefault(c, []).append(x)
        least = min(codes)
        code[i] = least
        if best is not None and code[:i + 1] > best[:i + 1]:
            return
        for x in codes[least]:
            placed[i] = x
            rec(i + 1, used | (1 << x))

    rec(0, 0)
    return tuple(palette), tuple(best)


def census_by_pairwise_iso(max_n):
    """The census deduplicated by invariant buckets and pairwise isomorphism.

    Every labelled candidate of each size, in lows order, named as in
    `enumerate_lattices`; a candidate is kept when no earlier member of
    its invariant bucket is isomorphic to it. Invariants are computed once
    per lattice.
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
            lat = Lattice(lat.labels, lat.up,
                          name=f"census({n})#{len(found)}")
            bucket.append((lat, inv))
            found.append(lat)
        out.extend(found)
    return out


def least_lows_by_rebuilt_codes(up, down):
    """The least lows tuple over linear extensions, each search node
    rebuilding every candidate's code from its lower elements' positions
    and pruning by comparing the prefix with the best's."""
    n = len(up)
    below = [down[x] & ~(1 << x) for x in range(n)]
    twin = [(below[x], up[x] & ~(1 << x)) for x in range(n)]
    pos = [0] * n
    lows = [0] * n
    best = None

    def rec(j, placed):
        nonlocal best
        if j == n:
            best = lows[:]
            return
        codes = {}
        for x in bits(~placed & ((1 << n) - 1)):
            if below[x] & ~placed:
                continue
            c = 0
            for y in bits(below[x]):
                c |= 1 << pos[y]
            codes.setdefault(c, []).append(x)
        least = min(codes)
        lows[j] = least
        if best is not None and lows[:j + 1] > best[:j + 1]:
            return
        seen = set()
        for x in codes[least]:
            if twin[x] not in seen:
                seen.add(twin[x])
                pos[x] = j
                rec(j + 1, placed | (1 << x))

    rec(0, 0)
    return tuple(best)


def up_of_lows(lows):
    """The up masks of the order whose element j lies above lows[j], one
    element's upper positions gathered at a time."""
    n = len(lows)
    return tuple(1 << i | mask_of(k for k in range(i + 1, n)
                                  if lows[k] >> i & 1)
                 for i in range(n))


def child_masks(lat, d):
    """(up, down) masks of `lat` plus a new coatom above the down-set d,
    labelled as `_coatom_extensions` describes: the coatom takes the old
    top's index and the top moves one up."""
    m = lat.n
    c, below_c = 1 << (m - 1), (1 << (m - 1)) - 1
    top = c << 1
    up = tuple((u & below_c) | (c if (d >> i) & 1 else 0) | top
               for i, u in enumerate(lat.up[:-1])) + (c | top, top)
    return up, lat.down[:-1] + (d | c, (top << 1) - 1)


def census_keying_every_child(max_n):
    """The census from every coatom extension of the classes one size down:
    each child is keyed by `least_lows_by_rebuilt_codes`, and each class is
    built, with full validation, as a `Lattice` from that tuple."""
    out = [Lattice(("e0",), (1,), name="census(1)#0"),
           Lattice(("e0", "e1"), (3, 2), name="census(2)#0")][:max_n]
    level = out[1:]
    for n in range(3, max_n + 1):
        labels = tuple(f"e{i}" for i in range(n))
        found = {least_lows_by_rebuilt_codes(*child_masks(parent, d))
                 for parent in level for d in _coatom_extensions(parent)}
        level = [Lattice(labels, up_of_lows(lows), name=f"census({n})#{k}")
                 for k, lows in enumerate(sorted(found))]
        out += level
    return out


def invariants_by_heights(lat):
    """The colours `_invariants` replaced: (upper covers, lower covers,
    height, depth), each height the longest chain down to the bottom and
    each depth the longest chain up to the top, refined by the covers'
    colours until the number of colours is stable."""
    n = lat.n
    ups = [[] for _ in range(n)]
    downs = [[] for _ in range(n)]
    for i, j in lat.cover_pairs:
        ups[i].append(j)
        downs[j].append(i)

    def heights(order, below):
        h = [0] * n
        for i in sorted(range(n), key=lambda i: order[i].bit_count()):
            h[i] = 1 + max((h[j] for j in below[i]), default=-1)
        return h

    inv = list(zip(map(len, ups), map(len, downs), heights(lat.down, downs),
                   heights(lat.up, ups)))
    classes = len(set(inv))
    while True:
        keys = [(inv[i], tuple(sorted(inv[j] for j in ups[i])),
                 tuple(sorted(inv[j] for j in downs[i]))) for i in range(n)]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        inv = [rank[k] for k in keys]
        if len(rank) == classes:
            return inv
        classes = len(rank)


def least_isomorphism_by_permutations(a, b):
    """The lexicographically least order isomorphism a -> b, of equal
    size, as a list, or None, by trying every permutation in order."""
    for f in permutations(range(a.n)):
        if all(b.up[f[x]] == mask_of(f[y] for y in bits(a.up[x]))
               for x in range(a.n)):
            return list(f)
    return None


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


def closures_by_join_table(lat):
    """(jbelow, closure) of `congruence._closures`, computed as it was
    before it read D off the arrow relations: D read off the whole join
    table, `lat.join_t`."""
    n, up, down, jt = lat.n, lat.up, lat.down, lat.join_t
    down_id = {d: x for x, d in enumerate(down)}
    joins = [k for k in range(n) if down[k] ^ (1 << k) in down_id]
    jbelow = [0] * n
    for t, j in enumerate(joins):
        for x in bits(up[j]):
            jbelow[x] |= 1 << t
    closure = []
    for k in joins:
        row, row_minus = jt[k], jt[down_id[down[k] ^ (1 << k)]]
        dep = 0
        for x in range(n):
            dep |= jbelow[row[x]] & ~jbelow[row_minus[x]]
        closure.append(dep)
    for t, ct in enumerate(closure):
        bit = 1 << t
        for s, cs in enumerate(closure):
            if cs & bit:
                closure[s] = cs | ct
    return tuple(jbelow), tuple(closure)


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


def con01_order_problems_by_pairs(lats, H, embeddings):
    """The Con01 order isomorphism of the horizontal sum H of `lats`,
    checked as `check_cghsum` did before its product pass: each member of
    Con01(H) restricts into Con01 of every summand and reassembles to
    itself, and every pair of members compares by refinement as their
    restrictions do componentwise, by each summand's `ConLattice.leq`.
    Quadratic in |Con01(H)|. Returns the problems found."""
    cons = [all_congruences(lat) for lat in lats]
    con01s = [set(con.con01_members()) for con in cons]
    problems, images = [], []
    for theta in all_congruences(H).con01_members():
        parts = [theta.restrict(e) for e in embeddings]
        if any(p not in c for p, c in zip(parts, con01s)):
            problems.append({"restriction_escapes": theta.render(H.labels)})
            continue
        if hsum_congruences(zip(lats, parts)) != theta:
            problems.append({"reassembly_differs": theta.render(H.labels)})
        images.append((theta, [c.index_of(p) for c, p in zip(cons, parts)]))
    for theta, ix in images:
        for theta2, ix2 in images:
            if theta.leq(theta2) != all(
                    c.leq(a, b) for c, a, b in zip(cons, ix, ix2)):
                return problems + [{"order_mismatch": [
                    theta.render(H.labels), theta2.render(H.labels)]}]
    return problems


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
    nab = len(con) - 1
    return [i for i, row in enumerate(con.order)
            if i != nab and row & ~(1 << i) == 1 << nab]


def prime_congruences_by_scan(con):
    """Members t != nabla of Con(L) with no pair above t whose meet lies
    below it: a cubic scan over a |Con|² table of partition meets."""
    ms = con.members
    m = len(ms)
    idx = con.index_of
    order = con.order
    meet_ix = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            k = idx(ms[i].meet(ms[j]))
            meet_ix[i][j] = meet_ix[j][i] = k
    out = []
    for t in range(m):
        if t == m - 1:
            continue
        below_t = [(order[i] >> t) & 1 for i in range(m)]
        above = [i for i in range(m) if not below_t[i]]
        prime = True
        for ai, a in enumerate(above):
            row = meet_ix[a]
            for b in above[ai:]:
                if below_t[row[b]]:
                    prime = False
                    break
            if not prime:
                break
        if prime:
            out.append(ms[t])
    return out


def ordinal_sum_by_covers(lower, upper):
    """`ordinal_sum` as label covers closed by `Lattice.from_covers`."""
    glue = f"0.{lower.labels[lower.top]}"
    lmap = {x: f"0.{x}" for x in lower.labels}
    umap = {y: f"1.{y}" for y in upper.labels}
    umap[upper.labels[upper.bottom]] = glue
    labels = [lmap[x] for x in lower.labels]
    labels += [umap[y] for i, y in enumerate(upper.labels) if i != upper.bottom]
    covers = [(lmap[lower.labels[i]], lmap[lower.labels[j]])
              for i, j in lower.cover_pairs]
    covers += [(umap[upper.labels[i]], umap[upper.labels[j]])
               for i, j in upper.cover_pairs]
    name = f"osum({_display(lower)},{_display(upper)})"
    result = Lattice.from_covers(labels, sorted(set(covers)), name=name)
    sources = {lmap[x]: [(0, x)] for x in lower.labels}
    sources[glue] = [(0, lower.labels[lower.top]), (1, upper.labels[upper.bottom])]
    for i, y in enumerate(upper.labels):
        if i != upper.bottom:
            sources[umap[y]] = [(1, y)]
    return result, {k: tuple(v) for k, v in sources.items()}


def horizontal_sum_by_covers(family):
    """`horizontal_sum` as label covers closed by `Lattice.from_covers`."""
    family = list(family)
    if not family:
        raise EmptyFamily("horizontal sum needs at least one summand")
    for lat in family:
        if lat.trivial:
            raise TrivialSummand("summands must have at least two elements")
    maps = []
    labels = ["0"]
    covers = set()
    sources = {"0": [], "1": []}
    for i, lat in enumerate(family):
        m = {}
        for x in range(lat.n):
            lab = lat.labels[x]
            if x == lat.bottom:
                m[lab] = "0"
            elif x == lat.top:
                m[lab] = "1"
            else:
                m[lab] = f"{i}.{lab}"
        maps.append(m)
        sources["0"].append((i, lat.labels[lat.bottom]))
        sources["1"].append((i, lat.labels[lat.top]))
        for x in range(lat.n):
            if x not in (lat.bottom, lat.top):
                lab = m[lat.labels[x]]
                labels.append(lab)
                sources[lab] = [(i, lat.labels[x])]
        for a, b in lat.cover_pairs:
            covers.add((m[lat.labels[a]], m[lat.labels[b]]))
    labels.append("1")
    name = f"hsum({','.join(_display(lat) for lat in family)})"
    result = Lattice.from_covers(labels, sorted(covers), name=name)
    return result, {k: tuple(v) for k, v in sources.items()}


def relabelled(lat, perm):
    """Copy of `lat` with old element i moved to index perm[i]."""
    labels = [None] * lat.n
    up = [0] * lat.n
    for i in range(lat.n):
        labels[perm[i]] = lat.labels[i]
        up[perm[i]] = mask_of(perm[j] for j in bits(lat.up[i]))
    return Lattice(labels, up)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos  # 1-based offset in the source text


def tokenize_eagerly(text):
    """Every token of `text`, ending in an "eof" token, or the
    `ExprSyntaxError` of its first lexical fault."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "(),":
            out.append(_Token(c, c, i + 1))
            i += 1
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ExprSyntaxError("unterminated string", i + 1)
            out.append(_Token("string", "".join(buf), i + 1))
            i = j + 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(_Token("int", int(text[i:j]), i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i + 1))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i + 1)
    out.append(_Token("eof", None, n + 1))
    return out


class _EagerParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind):
        tok = self.tokens[self.k]
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.value!r}" if tok.kind != "eof"
                else f"expected {kind!r}, found end of input",
                tok.pos,
            )
        self.k += 1
        return tok

    def expr(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"nesting deeper than {MAX_DEPTH}",
                                  self.peek().pos)
        node = self._node()
        self.depth -= 1
        return node

    def _node(self):
        tok = self.take("name")
        word = tok.value
        if word in ("B2", "M3", "N5", "K"):
            return NamedAtom(word)
        if word in ("chain", "div"):
            self.take("(")
            arg = self.take("int").value
            self.take(")")
            return NamedAtom(word, arg)
        if word == "file":
            self.take("(")
            path = self.take("string").value
            self.take(")")
            return FileAtom(path)
        if word == "osum":
            args = self._expr_list()
            if len(args) != 2:
                raise ArityError(f"osum takes 2 arguments, got {len(args)}")
            return OSum(args[0], args[1])
        if word == "hsum":
            args = self._expr_list()
            if len(args) < 2:
                raise ArityError(f"hsum takes at least 2 arguments, got {len(args)}")
            return HSum(tuple(args))
        if word == "D":
            args = self._expr_list()
            if len(args) != 1:
                raise ArityError(f"D takes 1 argument, got {len(args)}")
            return Dilation(args[0])
        if word == "ihsum":
            self.take("(")
            base = self.expr()
            self.take(",")
            low = self.take("string").value
            self.take(",")
            high = self.take("string").value
            self.take(",")
            insert = self.expr()
            self.take(")")
            return IHSum(base, low, high, insert)
        raise ExprSyntaxError(f"unknown name {word!r}", tok.pos)

    def _expr_list(self):
        self.take("(")
        args = [self.expr()]
        while self.peek().kind == ",":
            self.take(",")
            args.append(self.expr())
        self.take(")")
        return args


def parse_eagerly(text):
    """The expression tree of `text`, from the whole token list."""
    p = _EagerParser(tokenize_eagerly(text))
    node = p.expr()
    p.take("eof")
    return node
