"""Lower and upper bounds on the entropy of a graph or digraph.

The lower side comes from packing structure into the graph: a matching, a
clique cover, or its fractional relaxation (n minus the fractional clique
cover number is the strongest of the three).  The upper side removes
structure: a minimum transversal (vertices meeting every directed cycle) and
the subset-entropy linear program.  entropy_bracket strips loops, splits
into components, computes every bound once, and returns one BoundsReport:
the strongest sides as a bracket with machine-checkable witnesses, plus
every bound value behind it.  A collapsed bracket pins the entropy exactly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import lcm

from .graphs import (
    CapExceededError,
    Graph,
    automorphisms,
    bits_of,
    connected_components,
    induced_subgraph,
    loops,
    mask_of,
    orbit_representatives,
    permute_mask,
)
from .lp import EQ, GE, LE, OPTIMAL, LinearProgram, LpError, solve
from .rationals import Rational, Scaled, scaled

_MATCHING_COMPONENT_CAP = 24
DEFAULT_SHANNON_CAP = 10


def max_matching(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Maximum matching among mutual pairs (the edges, for undirected g), as
    (size, edges).

    Exact subset dynamic programming per connected component; deterministic
    witness (lowest vertex matched first).  nu(mask) tries the partners of
    the lowest vertex before leaving it unmatched, and stops at the first
    option that reaches |mask| // 2, which no matching of mask can beat.
    """
    mut = g.mutual
    edges: list[tuple[int, int]] = []
    total = 0
    for comp in connected_components(g):
        if comp.bit_count() > _MATCHING_COMPONENT_CAP:
            raise CapExceededError(
                f"matching on a component with {comp.bit_count()} vertices "
                f"exceeds the {_MATCHING_COMPONENT_CAP}-vertex cap")
        memo: dict[int, int] = {0: 0}

        def nu(mask: int) -> int:
            got = memo.get(mask)
            if got is not None:
                return got
            low = mask & -mask
            rest = mask ^ low
            most = mask.bit_count() >> 1
            best = 0
            nb = mut[low.bit_length() - 1] & rest
            while nb and best < most:
                bit = nb & -nb
                cand = 1 + nu(rest ^ bit)
                if cand > best:
                    best = cand
                nb ^= bit
            if best < most:
                cand = nu(rest)
                if cand > best:
                    best = cand
            memo[mask] = best
            return best

        size = nu(comp)
        total += size
        mask = comp
        while size:
            low = mask & -mask
            rest = mask ^ low
            if nu(rest) == size:
                mask = rest
                continue
            nb = mut[low.bit_length() - 1] & rest
            while nu(rest ^ (nb & -nb)) != size - 1:
                nb &= nb - 1
            bit = nb & -nb
            edges.append((low.bit_length() - 1, bit.bit_length() - 1))
            mask = rest ^ bit
            size -= 1
    return total, tuple(edges)


def maximal_cliques(g: Graph) -> tuple[int, ...]:
    """All maximal cliques of the mutual-arc relation, as sorted masks.

    Bron-Kerbosch with pivoting; a clique in a digraph is a set of vertices
    joined pairwise by arcs in both directions, so loops never matter and a
    lone vertex is a (maximal) clique when nothing extends it.
    """
    mut = g.mutual
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                out.append(r)
            return
        pivot = 0
        best = -1
        rest = p | x
        while rest:
            bit = rest & -rest
            nb = mut[bit.bit_length() - 1]
            d = (p & nb).bit_count()
            if d > best:
                best = d
                pivot = nb
            rest ^= bit
        rest = p & ~pivot
        while rest:
            bit = rest & -rest
            nb = mut[bit.bit_length() - 1]
            expand(r | bit, p & nb, x & nb)
            p ^= bit
            x |= bit
            rest ^= bit

    if g.n:
        expand(0, g.vertex_mask, 0)
    return tuple(sorted(out))


def clique_cover_number(g: Graph, nu: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Minimum number of cliques covering every vertex, with one witness cover.

    Branch and bound over maximal cliques (any optimal cover can be enlarged
    to maximal cliques).  Deterministic: branches on the uncovered vertex
    with the fewest usable cliques, lowest index first, and keeps the first
    cover of each smaller size it finds.

    When the largest clique has two vertices, a cover is a set of edges and
    lone vertices, so the minimum is n - nu, nu the maximum matching size
    (Gallai), and the search stops at its first cover of that size instead
    of proving it optimal.  nu is max_matching(g)[0]; pass it when it is
    already known, else it is computed here.
    """
    n = g.n
    if n == 0:
        return 0, ()
    cliques = maximal_cliques(g)
    containing = [[c for c in cliques if c >> v & 1] for v in range(n)]
    largest = max(c.bit_count() for c in cliques)
    best_count = n + 1
    best_cover: tuple[int, ...] = ()
    floor = 0
    if largest == 2:
        floor = n - (max_matching(g)[0] if nu is None else nu)

    def rec(uncovered: int, chosen: list[int]) -> None:
        nonlocal best_count, best_cover
        if best_count <= floor:
            return
        if not uncovered:
            if len(chosen) < best_count:
                best_count = len(chosen)
                best_cover = tuple(chosen)
            return
        bound = len(chosen) + (uncovered.bit_count() + largest - 1) // largest
        if bound >= best_count:
            return
        # The first vertex in fewest cliques; every vertex is in one at least.
        fewest = cliques
        scan = uncovered
        while scan and len(fewest) > 1:
            bit = scan & -scan
            options = containing[bit.bit_length() - 1]
            if len(options) < len(fewest):
                fewest = options
            scan ^= bit
        for c in fewest:
            chosen.append(c)
            rec(uncovered & ~c, chosen)
            chosen.pop()

    rec(g.vertex_mask, [])
    return best_count, best_cover


def check_clique_cover(g: Graph, cliques, weights) -> None:
    """Raise ValueError unless the weighted cliques are a fractional clique
    cover of g: every member a clique of the mutual-arc relation, every
    weight nonnegative, every vertex covered to total weight at least one.

    The levels are summed in integers, on the weights over a common
    denominator (scaled), as validate_entropy_function does."""
    if len(cliques) != len(weights):
        raise ValueError("one weight per clique required")
    _check_cliques(g, cliques)
    ks, scale = scaled(weights)
    if any(k < 0 for k in ks):
        raise ValueError("negative clique weight")
    level = [0] * g.n
    for c, k in zip(cliques, ks):
        while c:
            bit = c & -c
            level[bit.bit_length() - 1] += k
            c ^= bit
    for v, got in enumerate(level):
        if got < scale:
            raise ValueError(f"vertex {v} covered only to level {Rational(got, scale)}")


def _check_cliques(g: Graph, cliques) -> None:
    """Raise ValueError unless every mask in cliques is a clique of the
    mutual-arc relation."""
    closed = [r | 1 << u for u, r in enumerate(g.mutual)]
    for c in cliques:
        rest = c
        while rest:
            bit = rest & -rest
            if c & ~closed[bit.bit_length() - 1]:
                raise ValueError(f"{list(bits_of(c))} is not a clique")
            rest ^= bit


def build_fractional_cover_lp(g: Graph) -> tuple[LinearProgram, tuple[int, ...]]:
    """The covering LP behind the fractional clique cover number.

    One nonnegative weight per maximal clique, minimized subject to every
    vertex reaching total weight at least one.  Returns the program and the
    clique masks its variables refer to.  The program is stated column by
    column: clique i's column has a 1 on the row of each of its vertices.
    """
    cliques = maximal_cliques(g)
    start, index = [0], []
    for c in cliques:
        index += bits_of(c)
        start.append(len(index))
    k = len(cliques)
    return LinearProgram.from_columns("min", [1] * k, (start, index, [1] * len(index)),
                                      [GE] * g.n, [1] * g.n), cliques


def fractional_clique_cover_number(g: Graph, cover, packing
                                   ) -> tuple[Rational, tuple[int, ...], Scaled, Scaled]:
    """Optimal fractional clique cover of g as (kappa_f, cliques, weights,
    packing), given both halves of a weak-duality certificate.  Nothing is
    searched here.  The halves come as one of two pairs:

    - integral: cover is the cliques of a clique cover, each of weight 1,
      such as clique_cover_number returns, and packing a mask of vertices
      independent in the mutual-arc relation, such as the complement of the
      transversal that transversal_number returns;
    - fractional: cover is (cliques, weights) and packing a vertex weight
      vector, both Scaled, such as deletion_pair returns.

    The cover is feasible for the covering LP, and the packing (at most 1
    on every clique) for its dual, so when their totals agree the value is
    pinned by weak duality.  A perfect graph's minimum cover always has an
    independent set of its size (Lovasz, 1972); on up to seven vertices only
    graphs with an induced C5, C7 or co-C7 are imperfect.  Otherwise the
    exact LP over maximal cliques runs and neither half is used; restricting
    the LP to maximal cliques loses nothing, since weight on any clique can
    be moved to a maximal superset.

    The packing is checked whichever branch runs, the cover when it is
    used; both raise ValueError when infeasible.  The result passes
    check_clique_cover either way; for unit weights that check comes down to
    masks, every member a clique and their union V.  weights and packing are
    Scaled vectors, ints over one denominator, so the callers that read them
    in ints make no rational; packing is the LP's row duals when the LP ran,
    and sums to kappa_f.
    """
    if isinstance(packing, int):
        if packing & ~g.vertex_mask or any(g.mutual[v] & packing for v in bits_of(packing)):
            raise ValueError(f"{list(bits_of(packing))} is not an independent set")
        cliques = tuple(cover)
        if packing.bit_count() == len(cliques):
            _check_cliques(g, cliques)
            missing = g.vertex_mask
            for c in cliques:
                missing &= ~c
            if missing:
                raise ValueError(f"vertex {(missing & -missing).bit_length() - 1} covered only "
                                 "to level 0")
            return (Rational(len(cliques)), cliques, Scaled([1] * len(cliques)),
                    Scaled([packing >> v & 1 for v in range(g.n)]))
    elif check_fractional_pair(g, cover, packing):
        cliques, weights = cover
        return Rational(sum(weights.ints), weights.den), tuple(cliques), weights, packing
    lp, cliques = build_fractional_cover_lp(g)
    sol = solve(lp)
    check_clique_cover(g, cliques, sol.x)
    return sol.objective, cliques, sol.x, sol.y


def check_fractional_pair(g: Graph, cover, packing: Scaled) -> bool:
    """Whether the fractional pair (cover, packing), cover = (cliques,
    weights) and both Scaled, certifies kappa_f on g by weak duality.

    The packing is checked against every maximal clique of g first; where
    the two totals agree, the cover is checked with check_clique_cover.
    Either check raises ValueError when its half is infeasible, so True
    means both halves passed on g at one total, which is then kappa_f(g)."""
    _check_packing(g, packing)
    cliques, weights = cover
    if sum(weights.ints) * packing.den != sum(packing.ints) * weights.den:
        return False
    check_clique_cover(g, cliques, weights)
    return True


def _check_packing(g: Graph, packing: Scaled) -> None:
    """Raise ValueError unless packing, one weight per vertex, is a
    fractional packing of g: every weight nonnegative and every clique of
    the mutual-arc relation at total weight at most one.  With no negative
    weight the maximal cliques are the heaviest, so only they are summed,
    in integers."""
    ys, den = packing.ints, packing.den
    if len(ys) != g.n:
        raise ValueError("one packing weight per vertex required")
    if any(y < 0 for y in ys):
        raise ValueError("negative packing weight")
    for c in maximal_cliques(g):
        total = sum(ys[u] for u in bits_of(c))
        if total > den:
            raise ValueError(f"clique {list(bits_of(c))} has packing weight "
                             f"{Rational(total, den)}")


def deletion_pair(g: Graph, leaf, pair):
    """A fractional pair for fractional_clique_cover_number on g, lifted
    from an optimal one of g - v, or None when it does not lift.

    leaf maps g onto g - v plus v, as the canonical search's leaf does:
    vertex k of g is vertex leaf[k] of g - v's labelling, or v where
    leaf[k] is n - 1.  pair is (cliques, weights, packing) in that
    labelling, as fractional_clique_cover_number returns them.

    Every clique of g less v is a clique of g - v, so the packing with
    y_v = 0 stays a packing of g.  Adding v to each clique of the cover
    inside N(v) keeps every member a clique and covers v to the total
    weight of those cliques.  Once that level reaches one, both halves are
    feasible for g with the value kappa_f(g - v), so kappa_f(g) =
    kappa_f(g - v).  check_fractional_pair rechecks both on g, as
    fractional_clique_cover_number does."""
    cliques, weights, packing = pair
    place = [0] * g.n
    for k, j in enumerate(leaf):
        place[j] = k
    v = place[-1]
    nv = g.mutual[v]
    lifted = []
    level = 0
    for c, k in zip(cliques, weights.ints):
        m = permute_mask(place, c)
        if not m & ~nv:
            m |= 1 << v
            level += k
        lifted.append(m)
    if level < weights.den:
        return None
    ys = [0] * g.n
    for j, y in enumerate(packing.ints):
        ys[place[j]] = y
    return (tuple(lifted), weights), Scaled(ys, packing.den)


def _largest_independent_set(g: Graph) -> int:
    """A largest independent set of the mutual-arc relation, as the
    complement of a minimum vertex cover of it."""
    _, cover = _vertex_cover(g.mutual, g.vertex_mask)
    return g.vertex_mask & ~cover


def transversal_number(g: Graph) -> tuple[int, int]:
    """Minimum number of vertices meeting every directed cycle, with witness.

    Loops force their vertex into the transversal.  For undirected graphs
    every edge is a two-cycle, so after the loops this is a minimum vertex
    cover; for digraphs a branch and bound hits lazily discovered cycles.
    """
    lp = loops(g)
    if not g.directed:
        size, cover = _vertex_cover(g.mutual, g.vertex_mask & ~lp)
        return size + lp.bit_count(), cover | lp
    return _feedback_vertex_set(g)


def _vertex_cover(rows, alive: int) -> tuple[int, int]:
    """Minimum cover of the edges inside alive, as (size, mask); only the
    rows of alive vertices are read, and only inside alive."""
    best_size = alive.bit_count() + 1
    best_mask = 0

    def rec(mask: int, chosen: int, count: int) -> None:
        # Branch on the first vertex of largest degree: take it, or take
        # all of its neighbours.
        nonlocal best_size, best_mask
        if count >= best_size:
            return
        top = 0
        dmax = 0
        scan = mask
        while scan:
            bit = scan & -scan
            d = (rows[bit.bit_length() - 1] & mask).bit_count()
            if d > dmax:
                dmax = d
                top = bit
            scan ^= bit
        if not top:
            best_size = count
            best_mask = chosen
            return
        rec(mask ^ top, chosen | top, count + 1)
        nb = rows[top.bit_length() - 1] & mask
        rec(mask & ~(nb | top), chosen | nb, count + dmax)

    rec(alive, 0, 0)
    return best_size, best_mask


def _feedback_vertex_set(g: Graph) -> tuple[int, int]:
    n = g.n
    best_size = n + 1
    best_mask = 0

    def find_cycle(removed: int):
        alive = g.vertex_mask & ~removed
        for v in bits_of(alive):
            if g.rows[v] >> v & 1:
                return [v]
        # A shortest cycle through each vertex; a 2-cycle cannot be beaten.
        shortest = None
        for s in bits_of(alive):
            cycle = _shortest_cycle_through(g.rows, alive, s)
            if cycle is not None and (shortest is None or len(cycle) < len(shortest)):
                shortest = cycle
                if len(shortest) == 2:
                    break
        return shortest

    def rec(removed: int, count: int) -> None:
        nonlocal best_size, best_mask
        if count >= best_size:
            return
        cycle = find_cycle(removed)
        if cycle is None:
            best_size = count
            best_mask = removed
            return
        for w in cycle:
            rec(removed | 1 << w, count + 1)

    rec(0, 0)
    return best_size, best_mask


def _shortest_cycle_through(rows, alive: int, s: int) -> list[int] | None:
    """A shortest cycle [s, ..., u] through s among the loopless alive
    vertices, by one BFS from s: u is the first vertex with an arc back."""
    parent = {s: -1}
    queue = [s]
    while queue:
        nxt = []
        for u in queue:
            out = rows[u] & alive
            if out >> s & 1:
                cycle = [u]
                while parent[cycle[-1]] != -1:
                    cycle.append(parent[cycle[-1]])
                return cycle[::-1]
            for w in bits_of(out):
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        queue = nxt
    return None


# -- subset-entropy linear program ---------------------------------------------


def closure_map(g: Graph) -> list[int]:
    """cl[m] for every vertex mask m: repeatedly absorb any vertex whose whole
    in-neighbourhood already lies inside.  Absorbed vertices carry no fresh
    information, which is what lets the LP identify h(m) with h(cl[m])."""
    full = g.vertex_mask
    cols = g.cols
    cl = [0] * (full + 1)
    for m in range(full + 1):
        # Seeding with the closure of a submask, m & (m - 1) < m, is sound
        # (closures are monotone) and usually leaves little to do.
        cl[m] = _close(cols, full, cl[m & (m - 1)] | m)
    return cl


def _close(cols, full: int, cur: int) -> int:
    """The closure of the vertex mask cur inside full, as closure_map takes
    it: each round absorbs every outside vertex whose in-neighbours
    (cols) are inside, until a round absorbs none."""
    while True:
        grown = cur
        out = full & ~cur
        while out:
            low = out & -out
            if not cols[low.bit_length() - 1] & ~cur:
                grown |= low
            out ^= low
        if grown == cur:
            return cur
        cur = grown


def _shannon_blocks(g: Graph):
    """The rows of the subset-entropy LP in their three blocks, in row order.

    First the head rows h(empty) = 0, h(v) <= 1 and monotonicity at the top,
    as (coeffs, relation, rhs) with coeffs keyed by vertex mask; then the
    elemental submodular inequalities I(i; j | K) >= 0 as _elemental_table
    quadruples; then one functional equality per loopless vertex tying
    h(N(v)+v) to h(N(v)).  The elemental rows imply every monotonicity and
    submodularity inequality (Yeung, Information Theory and Network Coding,
    2008, ch. 14), so these rows are the whole defining system.
    """
    n = g.n
    full = g.vertex_mask
    head = [({0: 1}, EQ, 0)]
    head += [({1 << v: 1}, LE, 1) for v in range(n)]
    for v in range(n):
        drop = full ^ (1 << v)
        head.append(({drop: 1, full: -1} if drop else {full: -1}, LE, 0))
    functional = []
    for v, nv in enumerate(g.cols):
        if not nv >> v & 1:
            functional.append(({nv | 1 << v: 1, nv: -1} if nv else {1 << v: 1}, EQ, 0))
    return head, _elemental_table(n), functional


@lru_cache(maxsize=None)
def _elemental_table(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The elemental inequalities on n vertices as mask quadruples (a, b, c, d)
    meaning h(a) + h(b) <= h(c) + h(d), with a = K+i+j, b = K, c = K+i and
    d = K+j: pairs i < j in lexicographic order, and for each pair every K
    outside it in decreasing mask order.  n(n-1)/2 * 2^(n-2) rows that depend
    on n alone, so the LP builder and the validator share one table."""
    full = (1 << n) - 1
    table = []
    for i in range(n):
        for j in range(i + 1, n):
            pair = 1 << i | 1 << j
            rest = full & ~pair
            sub = rest
            while True:
                table.append((sub | pair, sub, sub | 1 << i, sub | 1 << j))
                if sub == 0:
                    break
                sub = (sub - 1) & rest
    return tuple(table)


def _shannon_rows(g: Graph):
    """Every row of the subset-entropy LP, as (coeffs, relation, rhs) with
    coeffs keyed by vertex mask, in the order of _shannon_blocks."""
    head, elemental, functional = _shannon_blocks(g)
    yield from head
    for a, b, c, d in elemental:
        yield {a: 1, b: 1, c: -1, d: -1}, LE, 0
    yield from functional


def build_shannon_lp(g: Graph) -> LinearProgram:
    """The full defining LP on one variable per vertex subset.

    Variable index == subset mask, one row per _shannon_rows entry.  This is
    what lp-dump prints; shannon_entropy solves the dual of its
    closure-collapsed equivalent.
    """
    return LinearProgram(1 << g.n, "max", {g.vertex_mask: 1}, _shannon_rows(g))


def shannon_entropy(g: Graph, cap: int = DEFAULT_SHANNON_CAP,
                    cover=None) -> tuple[Rational, Scaled]:
    """Solve the subset-entropy LP exactly: (theta, h), h indexed by vertex
    mask (length 2^n), a Scaled vector.

    Solves one program, the dual of the closure-collapsed formulation
    (variables only for closed vertex sets, one per orbit of the whole
    automorphism group) of the same rows as build_shannon_lp, as
    _entropy_dual states it; solve checks its certificates.  The collapsed
    optimum is read off the dual's row duals, in ints over their
    denominator, expanded back to all subsets and checked against every row
    of the full program (validate_entropy_function) before it is returned.
    Equality of the two formulations follows from the closure identity
    h(S) = h(cl(S)), which that final check re-certifies from scratch.  The
    solve and both checks run in ints; theta is made after them.

    cover is a fractional clique cover of g as (cliques, weights), such as
    the middle two entries of fractional_clique_cover_number; without it the
    optimal one is derived.  Only the float run reads it, through the crash
    columns _entropy_dual picks by it.
    """
    _check_shannon_cap(g.n, cap)
    full = g.vertex_mask
    cl = closure_map(g)
    if full == cl[0]:  # every set closes to V, h(V) = h(empty): h is zero
        h = Scaled([0] * (full + 1))
        return h[full], h
    gens = automorphisms(g)
    dual, var, crash = _entropy_dual(g, cl, gens, cover)
    sol = solve(dual, crash)
    if sol.status != OPTIMAL:
        raise LpError(f"dual of the entropy program came back {sol.status}")
    # The dual's row duals are -x, x the collapsed program's optimum.
    ys = sol.y.ints
    h = Scaled([0 if j < 0 else -ys[j] for j in var], sol.y.den)
    ok, why = validate_entropy_function(g, h)
    if not ok:
        raise AssertionError(f"entropy witness failed validation: {why}")
    return h[full], h


def _check_shannon_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(f"subset-entropy LP on {n} vertices exceeds the cap of {cap}",
                               flag="--shannon-cap")


def _cover_function(g: Graph, cliques, weights, gens) -> tuple[list[int], int]:
    """The entropy function of a fractional clique cover of g, in integers:
    (k, scale) with k[S] / scale = |S| - (sum of w_K over cliques K inside S)
    for every vertex mask S, once the cover is shrunk to level exactly one
    and averaged over the group that the automorphisms gens generate.

    A clique K of weight w gives w * min(|S & K|, |K| - 1), the entropy of
    |K| uniform symbols that sum to zero.  That meets every elemental row,
    and every functional row since each vertex of K sees the rest of K, and
    at level exactly one these terms sum to the formula, with value
    n - kappa_f on the whole vertex set.  Shrinking moves a vertex's excess
    weight from K to K - v, still a clique, so the total weight stays.
    Averaging gives each clique its orbit's mean weight, read off the
    generators without listing the group; the function stays feasible and
    becomes constant on orbits, as the collapsed program needs."""
    ks, scale = scaled(weights)
    w: dict[int, int] = {}
    for c, x in zip(cliques, ks):
        if x:
            w[c] = w.get(c, 0) + x
    level = [0] * g.n
    for c, x in w.items():
        for v in bits_of(c):
            level[v] += x
    for v in range(g.n):
        excess = level[v] - scale
        for c in [c for c in w if c >> v & 1]:
            if excess <= 0:
                break
            t = min(w[c], excess)
            excess -= t
            w[c] -= t
            if not w[c]:
                del w[c]
            if c != 1 << v:  # weight moved off a lone vertex only lowers the total
                w[c ^ 1 << v] = w.get(c ^ 1 << v, 0) + t
    orbits: list[set[int]] = []
    seen: set[int] = set()
    for c in w:
        if c in seen:
            continue
        orbit, frontier = {c}, [c]
        while frontier:
            d = frontier.pop()
            for p in gens:
                e = permute_mask(p, d)
                if e not in orbit:
                    orbit.add(e)
                    frontier.append(e)
        seen |= orbit
        orbits.append(orbit)
    sizes = lcm(*(len(o) for o in orbits))
    scale *= sizes
    # inside[S] sums the averaged weights of the cliques inside S.
    inside = [0] * (g.vertex_mask + 1)
    for orbit in orbits:
        share = sum(w.get(c, 0) for c in orbit) * (sizes // len(orbit))
        for c in orbit:
            inside[c] = share
    for v in range(g.n):
        bit = 1 << v
        for m in range(len(inside)):
            if m & bit:
                inside[m] += inside[m ^ bit]
    return [scale * m.bit_count() - inside[m] for m in range(len(inside))], scale


def _entropy_dual(g: Graph, cl: list[int], gens,
                  cover=None) -> tuple[LinearProgram, list[int], list[int]]:
    """The subset-entropy LP as the one program shannon_entropy solves, its
    variable table var and its crash columns.

    The collapsed program is max {x_V : Ax <= b, x >= 0}: the rows of
    build_shannon_lp on one variable per orbit of closed sets under the
    automorphisms gens of g, with var[m] the variable of subset m, or -1
    when cl[m] is the closure of the empty set, which is pinned to zero.
    What is returned is its dual, min {b.y : -A^T y <= -e_V, y >= 0}: one
    column per collapsed row, in row order, with b as the objective, and
    one row per variable.  These programs have many more rows than
    variables, so the dual's basis, one column per variable, is much
    smaller to factor.  The dual's row duals are -x for an optimal x.

    One pass over the collapsed rows builds it: each row, merged by variable
    and held once, is appended to the dual's column table as its next
    column, an entry on each dual row it has a term on, so the program is
    never held as rows or transposed.  In the same pass the row is tested
    at the entropy function of the fractional clique cover
    (_cover_function), and the column of every row tight there is a crash
    column.  That function is optimal whenever n - kappa_f =
    theta, and the float run starts from a crash basis over these columns.
    cover is (cliques, weights), such as the middle two entries of
    fractional_clique_cover_number; without it the optimal one is derived
    here."""
    pinned = cl[0]
    closed = sorted(set(cl))
    # Vertex symmetries identify variables: averaging any feasible h over the
    # automorphism group keeps it feasible (the constraint families are
    # permutation-closed) without moving the objective, so one variable per
    # orbit of closed sets (automorphisms commute with closure) loses nothing.
    # shannon_entropy still re-validates the expanded optimum against every
    # row.
    rep = orbit_representatives(gens, closed)
    var_of = {}
    for c in closed:
        if rep[c] == c and c != pinned:
            var_of[c] = len(var_of)
    nvars = len(var_of)
    var_of[pinned] = -1
    closed_var = {c: var_of[rep[c]] for c in closed}
    var = [closed_var[c] for c in cl]

    if cover is None:
        cover = fractional_clique_cover_number(
            g, clique_cover_number(g)[1], _largest_independent_set(g))[1:3]
    k, scale = _cover_function(g, *cover, gens)
    # at[j] is the cover's entropy function on variable j, times scale.
    at = [0] * nvars
    for m, j in enumerate(var):
        if j >= 0:
            at[j] = k[m]

    # Collapsed row i, A_i x <= b_i, every one '<=', is the dual's column i,
    # -A_i, with cost b_i, appended to the dual's column table as it comes.
    start, index, value = [0], [], []
    costs: list[int] = []
    crash: list[int] = []
    row_index: set[tuple] = set()

    def add(terms, rhs: int) -> bool:
        # Closure can map distinct subsets to the same variable, so merge the
        # (variable, coeff) terms by variable; -1 is the pinned zero.  A row
        # that cancels is dropped (False), one that repeats is kept once.
        merged: dict[int, int] = {}
        for j, c in terms:
            if j >= 0:
                merged[j] = merged.get(j, 0) + c
        items = tuple(sorted([t for t in merged.items() if t[1]]))
        if not items:
            return False
        key = (items, rhs)
        if key not in row_index:
            row_index.add(key)
            lhs = 0
            for j, c in items:
                index.append(j)
                value.append(-c)
                lhs += c * at[j]
            start.append(len(index))
            if lhs == rhs * scale:
                crash.append(len(costs))
            costs.append(rhs)
        return True

    def add_by_mask(block) -> None:
        # h(empty) and every functional equality vanish here: cl(empty) is
        # pinned to zero and cl(N(v)+v) = cl(N(v)).
        for coeffs, rel, rhs in block:
            if add([(var[m], c) for m, c in coeffs.items()], rhs) and rel != LE:
                raise AssertionError(f"closure left an equality row standing: {coeffs}")

    head, elemental, functional = _shannon_blocks(g)
    add_by_mask(head)
    # An elemental row is x_a + x_b <= x_c + x_d on the variables of its
    # quadruple, so the sorted pairs (a, b) and (c, d) determine it.  A
    # quadruple whose pairs were seen before, or whose two pairs are equal
    # (the row cancels), adds nothing.  Four distinct unpinned variables do
    # not merge, and no other row has that shape, so such a row goes
    # straight into the dual; add merges the rest.  a >= 0 leaves h(K)
    # unpinned, and with it every superset, since closure is monotone.
    seen: set[tuple[int, int, int, int]] = set()
    for a, b, c, d in elemental:
        a, b, c, d = var[a], var[b], var[c], var[d]
        if a > b:
            a, b = b, a
        if c > d:
            c, d = d, c
        quad = (a, b, c, d)
        if quad in seen:
            continue
        seen.add(quad)
        if a == c and b == d:
            continue
        if a >= 0 and a != b and c != d and a != c and a != d and b != c and b != d:
            if a < c and d < b:
                # The usual order: variables follow their sets' masks, and
                # K, K+i, K+j, K+i+j rise in mask order.
                index += (a, c, d, b)
                value += (-1, 1, 1, -1)
            else:
                for j in sorted(quad):
                    index.append(j)
                    value.append(-1 if j == a or j == b else 1)
            start.append(len(index))
            if at[a] + at[b] == at[c] + at[d]:
                crash.append(len(costs))
            costs.append(0)
        else:
            add(((a, 1), (b, 1), (c, -1), (d, -1)), 0)
    add_by_mask(functional)
    rhs = [0] * nvars
    rhs[var[g.vertex_mask]] = -1
    return LinearProgram.from_columns("min", costs, (start, index, value), [LE] * nvars,
                                      rhs), var, crash


def validate_entropy_function(g: Graph, h) -> tuple[bool, str]:
    """Check a subset function h, indexed by mask, against every row of the
    full subset-entropy LP: h(empty) = 0, singletons at most 1, the
    elemental inequalities and the functional equalities.  The elemental
    rows imply monotonicity and submodularity on every pair of subsets, so
    this is the whole defining system in O(n^2 2^n) row evaluations.

    The rows are evaluated in integers, on h and the right-hand sides both
    over h's common denominator (scaled: a Scaled h as it is); each
    elemental row is one comparison k[a] + k[b] <= k[c] + k[d] on a
    quadruple of the shared per-n table."""
    if len(h) != g.vertex_mask + 1:
        return False, "h must have one value per vertex subset"
    k, scale = scaled(h)
    head, elemental, functional = _shannon_blocks(g)

    def fails(coeffs, rel, rhs) -> bool:
        value = sum(c * k[m] for m, c in coeffs.items())
        return value != rhs * scale if rel == EQ else value > rhs * scale

    failing = chain(
        (row for row in head if fails(*row)),
        (({a: 1, b: 1, c: -1, d: -1}, LE, 0) for a, b, c, d in elemental
         if k[a] + k[b] > k[c] + k[d]),
        (row for row in functional if fails(*row)),
    )
    first = next(failing, None)
    if first is None:
        return True, "ok"
    coeffs, rel, rhs = first
    terms = " ".join(f"{c:+d}*h({m:b})" for m, c in coeffs.items())
    return False, f"row {terms} {rel} {rhs} fails"


# -- bracket assembly ------------------------------------------------------------


class BoundsReport:
    """Certified interval [lower, upper] containing the entropy of one graph,
    with the bounds behind it, each computed once: nu <= n - cc <=
    n - kappa_f on the lower side, tau and theta on the upper side.

    nu, cc and tau come from the matching, clique-cover and transversal
    searches, which every report that entropy_bracket builds has run, so
    the bounds CLI prints them.  A survey class closed from its
    augmentation parent's lifted cover (enumeration._bracket_from_parent)
    runs none of them: all three are None there, and on any union with
    such a part.  The survey and the verify suites print none of them.

    exact means the interval is a point.  Each side carries a witness, a
    dict whose "tag" names the argument ("matching", "clique-cover",
    "fractional-clique-cover", "transversal", "shannon-lp", "loop-reduction",
    "union-additivity", "vertex-deletion") and whose other keys hold its
    data; the last three nest the witnesses of their parts under "inner".
    A vertex-deletion upper witness, which only the survey and the wheel
    suite make, names a vertex v and rests on H(G) <= H(G - v) + 1: its
    inner witness bounds G - v, so it is rechecked there, plus one.  Where
    it is labelled depends on the maker: the survey labels it in the
    canonical representative of the class of G - v (recheck it on
    canonical_form of G - v), the wheel suite in G's own labelling less v,
    as the apex is the last vertex.  theta is None when lazy_theta skipped
    it on some component, or a component was closed by vertex deletion,
    since the value of the whole graph is then unknown.

    The rational values are held as Python ints over one positive
    denominator, values = Scaled([lower, upper, kappa_f, theta], den), with
    no theta entry when theta is None.  Reports are built, compared and
    added in those ints; lower, upper, kappa_f and theta make their
    Rationals when they are read, as LpSolution's values do.
    """

    __slots__ = ("values", "exact", "lower_witness", "upper_witness", "nu", "cc", "tau")

    def __init__(self, values: Scaled, lower_witness, upper_witness, nu: int | None = None,
                 cc: int | None = None, tau: int | None = None):
        low, up = values.ints[:2]
        if low > up:
            raise AssertionError(f"crossed bracket [{values[0]}, {values[1]}]")
        self.values = values
        self.exact = low == up
        self.lower_witness = lower_witness
        self.upper_witness = upper_witness
        self.nu = nu
        self.cc = cc
        self.tau = tau

    @property
    def lower(self) -> Rational:
        return self.values[0]

    @property
    def upper(self) -> Rational:
        return self.values[1]

    @property
    def kappa_f(self) -> Rational:
        return self.values[2]

    @property
    def theta(self) -> Rational | None:
        return self.values[3] if len(self.values) == 4 else None

    def __repr__(self):
        return f"BoundsReport([{self.lower}, {self.upper}], exact={self.exact})"


def _over_one_denominator(*pairs: tuple[int, int]) -> Scaled:
    """(numerator, positive denominator) pairs as one Scaled vector, over
    the least common multiple of their denominators."""
    den = lcm(*(q for _, q in pairs))
    return Scaled([p * (den // q) for p, q in pairs], den)


def union_report(components: list[list[int]], parts: list[BoundsReport]) -> BoundsReport:
    """Report of a disjoint union: every value adds over the parts (entropy
    is additive over components, and every matching edge, clique and cycle
    lies inside one), and each side's witness lists the component vertex
    lists with the parts' witnesses for that side.  theta is None when some
    part's is, and so are nu, cc and tau, which come together."""
    width = min((len(p.values) for p in parts), default=4)
    den = lcm(*(p.values.den for p in parts))
    sums = [0] * width
    nu = cc = tau = 0
    for p in parts:
        f = den // p.values.den
        for i in range(width):
            sums[i] += p.values.ints[i] * f
        if p.nu is None or nu is None:
            nu = cc = tau = None
        else:
            nu, cc, tau = nu + p.nu, cc + p.cc, tau + p.tau
    return BoundsReport(
        Scaled(sums, den),
        {"tag": "union-additivity", "components": components,
         "inner": [p.lower_witness for p in parts]},
        {"tag": "union-additivity", "components": components,
         "inner": [p.upper_witness for p in parts]},
        nu, cc, tau,
    )


def entropy_bracket(g: Graph, shannon_cap: int = DEFAULT_SHANNON_CAP,
                    lazy_theta: bool = False) -> BoundsReport:
    """Best certified bracket for the entropy of g, with every bound behind it.

    Pipeline: strip looped vertices (each contributes exactly 1), split into
    weakly connected components (union_report adds their reports; the empty
    graph has none), then per component take lower = n - fractional clique
    cover number (never worse than the matching or integral cover bounds)
    and upper = min(transversal, LP).  Where the transversal already meets
    the lower bound, theta = tau is certified without the LP
    (add_shannon_bound), and lazy_theta skips even that, leaving theta
    None.  theta, when computed, is the LP's value on all of g: both
    reductions are exact for the LP, not just bounds.

    Across the loop strip tau and theta add the loop count, but nu, cc and
    kappa_f do not (a looped vertex still sits in a clique), so those three
    are taken on the looped graph itself.  Every value is carried in ints
    over a denominator (BoundsReport.values); rationals are made only for
    the witnesses that hold them.
    """
    lp_mask = loops(g)
    if lp_mask:
        # First, so the fixed matching cap refuses before any unbounded search.
        nu = max_matching(g)[0]
        sub, _ = induced_subgraph(g, g.vertex_mask & ~lp_mask)
        inner = entropy_bracket(sub, shannon_cap, lazy_theta)
        k = lp_mask.bit_count()
        looped = list(bits_of(lp_mask))
        cc, cover = clique_cover_number(g, nu)
        # A largest independent set, as a loopless leaf gets from tau: the
        # looped graph's transversal holds every looped vertex, and on a
        # digraph its search would span all components at once.
        kappa_f = fractional_clique_cover_number(g, cover, _largest_independent_set(g))[0]
        ints, den = inner.values.ints, inner.values.den
        shifted = [(v + k * den, den) for v in ints]
        (kf,), kf_den = scaled((kappa_f,))
        shifted[2] = (kf, kf_den)
        return BoundsReport(
            _over_one_denominator(*shifted),
            {"tag": "loop-reduction", "loops": looped, "inner": inner.lower_witness},
            {"tag": "loop-reduction", "loops": looped, "inner": inner.upper_witness},
            nu, cc, inner.tau + k)
    comps = connected_components(g)
    if len(comps) != 1:
        return union_report(
            [list(bits_of(comp)) for comp in comps],
            [entropy_bracket(induced_subgraph(g, comp)[0], shannon_cap, lazy_theta)
             for comp in comps])
    report, pair = combinatorial_bracket(g)
    if lazy_theta and report.exact:
        return report
    return add_shannon_bound(g, report, pair, shannon_cap)


def combinatorial_bracket(g: Graph, lifted=None) -> tuple[BoundsReport, tuple]:
    """entropy_bracket's step for one connected loopless g, up to the LP:
    lower = n - kappa_f, upper = tau, theta None.

    Returns the report and the pair behind kappa_f, (cliques, weights,
    packing) as fractional_clique_cover_number returns them; add_shannon_bound
    hands its cover to the LP, and a graph with g as g - v can lift it.

    kappa_f comes from the integral pair, the minimum clique cover and the
    independent set the transversal leaves.  lifted, when given, is a
    fractional pair for g as deletion_pair returns it; it is used only where
    the integral halves differ, so that the LP would run.
    """
    n = g.n
    nu, matching = max_matching(g)
    cc, cover = clique_cover_number(g, nu)
    # A transversal meets every 2-cycle, so what it leaves is independent.
    tau, removed = transversal_number(g)
    halves = cover, g.vertex_mask & ~removed
    if lifted is not None and halves[1].bit_count() != len(cover):
        halves = lifted
    kappa_f, cliques, weights, packing = fractional_clique_cover_number(g, *halves)
    # kappa_f = kf / den and lower = n - kappa_f = low / den.
    (kf,), den = scaled((kappa_f,))
    low = n * den - kf
    assert nu * den <= (n - cc) * den <= low
    if nu * den == low:
        low_wit = {"tag": "matching", "edges": [list(e) for e in matching]}
    elif (n - cc) * den == low:
        low_wit = {"tag": "clique-cover", "cliques": [list(bits_of(c)) for c in cover]}
    else:
        low_wit = fractional_cover_witness(cliques, weights, kappa_f)
    up_wit = {"tag": "transversal", "removed": list(bits_of(removed))}
    report = BoundsReport(_over_one_denominator((low, den), (tau, 1), (kf, den)),
                          low_wit, up_wit, nu, cc, tau)
    return report, (cliques, weights, packing)


def fractional_cover_witness(cliques, weights: Scaled, kappa_f: Rational) -> dict:
    """The lower witness of n - kappa_f from an optimal fractional cover,
    its cliques as vertex lists and its weights."""
    return {"tag": "fractional-clique-cover", "cliques": [list(bits_of(c)) for c in cliques],
            "weights": list(weights), "value": kappa_f}


def add_shannon_bound(g: Graph, report: BoundsReport, pair,
                      shannon_cap: int = DEFAULT_SHANNON_CAP) -> BoundsReport:
    """The report combinatorial_bracket(g) returned, with theta, the
    subset-entropy LP's value, added: the upper side becomes theta, with a
    shannon-lp witness, where theta is below tau.  pair is the one it
    returned alongside; the LP's float run reads its cover.

    The only place the bracket reaches the LP, and only where it is open.
    An exact report, n - kappa_f = tau, has theta = tau certified without
    the LP (_theta_is_tau), so it keeps its transversal witness."""
    (low, _, kf), den = report.values.ints, report.values.den
    if report.exact:
        _theta_is_tau(g, report, pair, shannon_cap)
        theta = (report.tau, 1)
    else:
        h = shannon_entropy(g, shannon_cap, pair[:2])[1]
        theta = (h.ints[g.vertex_mask], h.den)
    values = [(low, den), (report.tau, 1), (kf, den), theta]
    up_wit = report.upper_witness
    if theta[0] < report.tau * theta[1]:
        values[1] = theta
        up_wit = {"tag": "shannon-lp", "theta": Rational(*theta)}
    return BoundsReport(_over_one_denominator(*values), report.lower_witness, up_wit,
                        report.nu, report.cc, report.tau)


def _theta_is_tau(g: Graph, report: BoundsReport, pair, shannon_cap: int) -> None:
    """Raise unless theta(g) = tau, for an exact report of
    combinatorial_bracket(g) (n - kappa_f = tau) and the pair behind it, by
    three checks in ints and no LP, after the cap check that shannon_entropy
    makes:

    - the transversal witness T, of tau vertices, closes to V (absorbing
      one vertex at a time whose in-neighbourhood lies inside, as
      closure_map does for every set), so every feasible h has h(V) =
      h(T) <= |T| and theta <= tau;
    - the entropy function of the pair's cover (_cover_function, with no
      averaging) passes validate_entropy_function;
    - its value on V is n - kappa_f, so theta >= n - kappa_f = tau.

    A failed check raises AssertionError, as shannon_entropy does when its
    witness fails validation."""
    _check_shannon_cap(g.n, shannon_cap)
    full = g.vertex_mask
    removed = report.upper_witness["removed"]
    if len(removed) != report.tau or _close(g.cols, full, mask_of(removed)) != full:
        raise AssertionError(f"transversal {removed} does not close to V in {report.tau} "
                             "vertices")
    k, scale = _cover_function(g, *pair[:2], ())
    ok, why = validate_entropy_function(g, Scaled(k, scale))
    if not ok:
        raise AssertionError(f"cover entropy function failed validation: {why}")
    if k[full] * report.values.den != report.values.ints[0] * scale:
        raise AssertionError(f"cover entropy function is {Rational(k[full], scale)} on V, "
                             f"not n - kappa_f = {report.lower}")
