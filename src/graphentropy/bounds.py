"""Lower and upper bounds on the entropy of a graph or digraph.

The lower side comes from packing structure into the graph: a matching, a
clique cover, or its fractional relaxation (n minus the fractional clique
cover number is the strongest of the three).  The upper side removes
structure: a minimum transversal (vertices meeting every directed cycle) and
the subset-entropy linear program.  bounds_report strips loops, splits into
components, computes every bound once, and returns one BoundsReport: the
strongest sides as a bracket with machine-checkable witnesses, plus every
bound value behind it.  A collapsed bracket pins the entropy exactly.
"""

from __future__ import annotations

from math import lcm

from .graphs import (
    CapExceededError,
    Graph,
    automorphisms,
    bits_of,
    connected_components,
    induced_subgraph,
    loops,
    orbit_representatives,
)
from .lp import (
    EQ,
    GE,
    LE,
    OPTIMAL,
    LinearProgram,
    LpError,
    LpSolution,
    solve,
    verify_certificates,
)
from .rationals import Rational

_MATCHING_COMPONENT_CAP = 24
DEFAULT_SHANNON_CAP = 10


class MatchingResult:
    """A maximum matching on the mutual-arc edges: size, edge list, and the
    mask of matched vertices."""

    __slots__ = ("size", "edges", "vertices")

    def __init__(self, size: int, edges: tuple[tuple[int, int], ...]):
        self.size = size
        self.edges = edges
        m = 0
        for u, v in edges:
            m |= 1 << u | 1 << v
        self.vertices = m

    def __repr__(self):
        return f"MatchingResult(size={self.size}, edges={list(self.edges)})"


def max_matching(g: Graph) -> MatchingResult:
    """Maximum matching among mutual pairs (the edges, for undirected g).

    Exact subset dynamic programming per connected component; deterministic
    witness (lowest vertex matched first).
    """
    mut = [g.mutual_row(u) for u in range(g.n)]
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
            v = low.bit_length() - 1
            rest = mask ^ low
            best = nu(rest)
            for u in bits_of(mut[v] & rest):
                cand = 1 + nu(rest ^ (1 << u))
                if cand > best:
                    best = cand
            memo[mask] = best
            return best

        total += nu(comp)
        mask = comp
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            rest = mask ^ low
            if nu(rest) == nu(mask):
                mask = rest
                continue
            for u in bits_of(mut[v] & rest):
                if 1 + nu(rest ^ (1 << u)) == nu(mask):
                    edges.append((v, u))
                    mask = rest ^ (1 << u)
                    break
    return MatchingResult(total, tuple(edges))


def maximal_cliques(g: Graph) -> tuple[int, ...]:
    """All maximal cliques of the mutual-arc relation, as sorted masks.

    Bron-Kerbosch with pivoting; a clique in a digraph is a set of vertices
    joined pairwise by arcs in both directions, so loops never matter and a
    lone vertex is a (maximal) clique when nothing extends it.
    """
    mut = [g.mutual_row(u) for u in range(g.n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = -1
        best = -1
        for u in bits_of(p | x):
            d = (p & mut[u]).bit_count()
            if d > best:
                best = d
                pivot = u
        for v in bits_of(p & ~mut[pivot]):
            bit = 1 << v
            expand(r | bit, p & mut[v], x & mut[v])
            p ^= bit
            x |= bit

    if g.n:
        expand(0, g.vertex_mask, 0)
    return tuple(sorted(out))


def clique_cover_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum number of cliques covering every vertex, with one witness cover.

    Branch and bound over maximal cliques (any optimal cover can be enlarged
    to maximal cliques).  Deterministic: branches on the uncovered vertex
    with the fewest usable cliques, lowest index first.
    """
    n = g.n
    if n == 0:
        return 0, ()
    cliques = maximal_cliques(g)
    containing = [[c for c in cliques if c >> v & 1] for v in range(n)]
    largest = max(c.bit_count() for c in cliques)
    best_count = n + 1
    best_cover: tuple[int, ...] = ()

    def rec(uncovered: int, chosen: list[int]) -> None:
        nonlocal best_count, best_cover
        if not uncovered:
            if len(chosen) < best_count:
                best_count = len(chosen)
                best_cover = tuple(chosen)
            return
        bound = len(chosen) + (uncovered.bit_count() + largest - 1) // largest
        if bound >= best_count:
            return
        v = -1
        fewest = None
        for u in bits_of(uncovered):
            k = len(containing[u])
            if fewest is None or k < fewest:
                fewest = k
                v = u
        for c in containing[v]:
            chosen.append(c)
            rec(uncovered & ~c, chosen)
            chosen.pop()

    rec(g.vertex_mask, [])
    return best_count, best_cover


class CliqueFamily:
    """Weighted family of cliques; validate() checks the fractional cover
    conditions exactly against a host graph."""

    __slots__ = ("cliques", "weights")

    def __init__(self, cliques, weights):
        self.cliques = tuple(cliques)
        self.weights = tuple(Rational(w) for w in weights)
        if len(self.cliques) != len(self.weights):
            raise ValueError("one weight per clique required")

    def total(self) -> Rational:
        return sum(self.weights, Rational(0))

    def validate(self, g: Graph) -> None:
        for c in self.cliques:
            for u in bits_of(c):
                if c & ~(g.mutual_row(u) | 1 << u):
                    raise ValueError(f"{sorted(bits_of(c))} is not a clique")
        for w in self.weights:
            if w < 0:
                raise ValueError("negative clique weight")
        for v in range(g.n):
            level = sum((w for c, w in zip(self.cliques, self.weights) if c >> v & 1),
                        Rational(0))
            if level < 1:
                raise ValueError(f"vertex {v} covered only to level {level}")


def build_fractional_cover_lp(g: Graph) -> tuple[LinearProgram, tuple[int, ...]]:
    """The covering LP behind the fractional clique cover number.

    One nonnegative weight per maximal clique, minimized subject to every
    vertex reaching total weight at least one.  Returns the program and the
    clique masks its variables refer to.
    """
    cliques = maximal_cliques(g)
    k = len(cliques)
    rows = []
    for v in range(g.n):
        coeffs = {i: 1 for i, c in enumerate(cliques) if c >> v & 1}
        rows.append((coeffs, GE, 1))
    return LinearProgram(k, "min", [1] * k, rows), cliques


def fractional_clique_cover_number(g: Graph) -> tuple[Rational, CliqueFamily]:
    """Optimal fractional clique cover, certified by an independent set of
    equal size when one exists and by an exact LP over maximal cliques
    otherwise.

    A minimum integral cover with cc cliques is a feasible fractional cover
    of weight cc, and an independent set S of the mutual-arc relation is a
    feasible dual (each clique meets S at most once), so |S| = cc pins the
    value by weak duality.  A perfect graph always has such an S (Lovasz,
    1972); on up to seven vertices only graphs with an induced C5, C7 or
    co-C7 are imperfect.  Otherwise the LP runs; restricting it to maximal
    cliques loses nothing, since weight on any clique can be moved to a
    maximal superset.  The returned family revalidates exactly either way.
    """
    if g.n == 0:
        return Rational(0), CliqueFamily((), ())
    return _fractional_cover(g, *clique_cover_number(g))


def _fractional_cover(g: Graph, cc: int, cover: tuple[int, ...]) -> tuple[Rational, CliqueFamily]:
    """fractional_clique_cover_number from a minimum clique cover already
    in hand, so callers that also report cc search for it once."""
    mut = [g.mutual_row(u) for u in range(g.n)]
    size, vertex_cover = _vertex_cover(mut, g.vertex_mask)
    if g.n - size == cc:
        family = CliqueFamily(cover, [1] * cc)
        family.validate(g)
        independent = g.vertex_mask & ~vertex_cover
        if any(mut[v] & independent for v in bits_of(independent)):
            raise AssertionError(f"dual witness {sorted(bits_of(independent))} "
                                 f"is not an independent set")
        return Rational(cc), family
    lp, cliques = build_fractional_cover_lp(g)
    sol = solve(lp)
    family = CliqueFamily(cliques, sol.primal)
    family.validate(g)
    return sol.objective, family


def transversal_number(g: Graph) -> tuple[int, int]:
    """Minimum number of vertices meeting every directed cycle, with witness.

    Loops force their vertex into the transversal.  For undirected graphs
    every edge is a two-cycle, so after the loops this is a minimum vertex
    cover; for digraphs a branch and bound hits lazily discovered cycles.
    """
    lp = loops(g)
    if not g.directed:
        keep = g.vertex_mask & ~lp
        sub_rows = [g.rows[u] & keep & ~(1 << u) if keep >> u & 1 else 0
                    for u in range(g.n)]
        size, cover = _vertex_cover(sub_rows, keep)
        return size + lp.bit_count(), cover | lp
    return _feedback_vertex_set(g)


def _vertex_cover(rows, alive: int) -> tuple[int, int]:
    best_size = alive.bit_count() + 1
    best_mask = 0

    def degree(v: int, mask: int) -> int:
        return (rows[v] & mask).bit_count()

    def rec(mask: int, chosen: int, count: int) -> None:
        nonlocal best_size, best_mask
        if count >= best_size:
            return
        v = -1
        dmax = 0
        for u in bits_of(mask):
            d = degree(u, mask)
            if d > dmax:
                dmax = d
                v = u
        if v < 0:
            best_size = count
            best_mask = chosen
            return
        bit = 1 << v
        rec(mask ^ bit, chosen | bit, count + 1)
        nb = rows[v] & mask
        rec(mask & ~(nb | bit), chosen | nb, count + nb.bit_count())

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
        # BFS from every vertex for a shortest cycle through it.
        shortest = None
        for s in bits_of(alive):
            parent = {s: -1}
            queue = [s]
            while queue:
                nxt = []
                for u in queue:
                    for w in bits_of(g.rows[u] & alive):
                        if w == s:
                            cycle = [u]
                            while parent[cycle[-1]] != -1:
                                cycle.append(parent[cycle[-1]])
                            cycle.reverse()
                            if shortest is None or len(cycle) < len(shortest):
                                shortest = cycle
                            nxt = []
                            queue = []
                            break
                        if w not in parent:
                            parent[w] = u
                            nxt.append(w)
                    else:
                        continue
                    break
                queue = nxt
            if shortest is not None and len(shortest) == 2:
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


# -- subset-entropy linear program ---------------------------------------------


def closure_map(g: Graph) -> list[int]:
    """cl[m] for every vertex mask m: repeatedly absorb any vertex whose whole
    in-neighbourhood already lies inside.  Absorbed vertices carry no fresh
    information, which is what lets the LP identify h(m) with h(cl[m])."""
    n = g.n
    cols = g.cols
    cl = [0] * (g.vertex_mask + 1)
    order = sorted(range(g.vertex_mask + 1), key=int.bit_count)
    for m in order:
        cur = cl[m & (m - 1)] | m if m else 0
        # Seeding with the closure of a submask is sound (closures are
        # monotone) and usually leaves little to do.
        changed = True
        while changed:
            changed = False
            for v in range(n):
                bit = 1 << v
                if not cur & bit and cols[v] & ~cur == 0:
                    cur |= bit
                    changed = True
        cl[m] = cur
    return cl


def _shannon_rows(g: Graph):
    """Every row of the subset-entropy LP, as (coeffs, relation, rhs) with
    coeffs keyed by vertex mask.

    In order: h(empty) = 0, h(v) <= 1, monotonicity at the top, the
    elemental submodular inequalities I(i; j | K) >= 0, and one functional
    equality per loopless vertex tying h(N(v)+v) to h(N(v)).  The elemental
    rows imply every monotonicity and submodularity inequality (Yeung,
    Information Theory and Network Coding, 2008, ch. 14), so these rows are
    the whole defining system.
    """
    n = g.n
    full = g.vertex_mask
    yield {0: 1}, EQ, 0
    for v in range(n):
        yield {1 << v: 1}, LE, 1
    for v in range(n):
        drop = full ^ (1 << v)
        yield ({drop: 1, full: -1} if drop else {full: -1}), LE, 0
    for i in range(n):
        for j in range(i + 1, n):
            pair = 1 << i | 1 << j
            rest = full & ~pair
            sub = rest
            while True:
                yield {sub | pair: 1, sub: 1, sub | 1 << i: -1, sub | 1 << j: -1}, LE, 0
                if sub == 0:
                    break
                sub = (sub - 1) & rest
    cols = g.cols
    for v in range(n):
        nv = cols[v]
        if not nv >> v & 1:
            yield ({nv | 1 << v: 1, nv: -1} if nv else {1 << v: 1}), EQ, 0


def build_shannon_lp(g: Graph) -> LinearProgram:
    """The full defining LP on one variable per vertex subset.

    Variable index == subset mask, one row per _shannon_rows entry.  This is
    what lp-dump prints; the solver works on the closure-collapsed
    equivalent.
    """
    return LinearProgram(1 << g.n, "max", {g.vertex_mask: 1}, _shannon_rows(g))


class ShannonResult:
    """Optimal value of the subset-entropy LP plus its witness.

    h is indexed by vertex mask (length 2^n).  shannon_entropy checks it
    against every elemental row before returning (validate_entropy_function):
    h of the empty set is 0, singletons at most 1, the elemental
    inequalities, hence monotone and submodular on every pair of subsets, and
    the per-vertex functional equalities.
    """

    __slots__ = ("theta", "h")

    def __init__(self, theta, h):
        self.theta = theta
        self.h = h


def shannon_entropy(g: Graph, cap: int = DEFAULT_SHANNON_CAP) -> ShannonResult:
    """Solve the subset-entropy LP exactly.

    Works on the closure-collapsed formulation (variables only for closed
    vertex sets, one per orbit of the whole automorphism group) of the same
    rows as build_shannon_lp, solved through its dual; then expands the
    optimum back to all subsets and checks it against every elemental row of
    the full program (validate_entropy_function).
    Equality of the two formulations follows from the closure identity
    h(S) = h(cl(S)), which that final check re-certifies from scratch.
    """
    n = g.n
    if n > cap:
        raise CapExceededError(f"subset-entropy LP on {n} vertices exceeds the cap of {cap}",
                               flag="--shannon-cap")
    zero = Rational(0)
    if n == 0:
        return ShannonResult(zero, (zero,))
    full = g.vertex_mask
    cl = closure_map(g)
    if full == cl[0]:
        return ShannonResult(zero, (zero,) * (full + 1))
    lp, var = _collapsed_program(g, cl)
    values = _solve_via_dual(lp, var[full]).primal
    h = tuple(zero if j < 0 else values[j] for j in var)
    ok, why = validate_entropy_function(g, h)
    if not ok:
        raise AssertionError(f"entropy witness failed validation: {why}")
    return ShannonResult(h[full], h)


def _collapsed_program(g: Graph, cl: list[int]) -> tuple[LinearProgram, list[int]]:
    """The rows of build_shannon_lp on one variable per orbit of closed sets,
    and the table var: var[m] is the variable of subset m, or -1 when cl[m]
    is the closure of the empty set, which is pinned to zero."""
    pinned = cl[0]
    closed = sorted(set(cl))
    # Vertex symmetries identify variables: averaging any feasible h over the
    # automorphism group keeps it feasible (the constraint families are
    # permutation-closed) without moving the objective, so one variable per
    # orbit of closed sets (automorphisms commute with closure) loses nothing.
    # shannon_entropy still re-validates the expanded optimum against every
    # row.
    rep = orbit_representatives(automorphisms(g), closed)
    var_of = {}
    for c in closed:
        if rep[c] == c and c != pinned:
            var_of[c] = len(var_of)
    nvars = len(var_of)
    var_of[pinned] = -1
    closed_var = {c: var_of[rep[c]] for c in closed}
    var = [closed_var[c] for c in cl]

    rows = []
    row_index: set[tuple] = set()
    for coeffs, rel, rhs in _shannon_rows(g):
        # Closure can map distinct subsets to the same variable, so merge by
        # variable.  h(empty) and every functional equality vanish here:
        # cl(empty) is pinned to zero and cl(N(v)+v) = cl(N(v)).
        items: dict[int, int] = {}
        for mask, c in coeffs.items():
            j = var[mask]
            if j >= 0:
                items[j] = items.get(j, 0) + c
        items = {j: c for j, c in items.items() if c}
        if not items:
            continue
        if rel != LE:
            raise AssertionError(f"closure left an equality row standing: {coeffs}")
        key = (tuple(sorted(items.items())), rhs)
        if key not in row_index:
            row_index.add(key)
            rows.append((items, LE, rhs))
    return LinearProgram(nvars, "max", {var[g.vertex_mask]: 1}, rows), var


def _solve_via_dual(lp: LinearProgram, obj_var: int):
    """Solve max {x_obj : Ax <= b, x >= 0} through its dual.

    These programs have many more rows than variables, so the dual's basis,
    one column per variable, is much smaller to factor.  No trust is transferred: the dual's
    own certificates are checked inside solve(), and the recovered primal
    point plus dual vector are re-verified against the original program.
    """
    dsol = solve(_dual_program(lp, obj_var))
    if dsol.status != OPTIMAL:
        raise LpError(f"dual of the entropy program came back {dsol.status}")
    x = tuple(-v for v in dsol.dual)
    sol = LpSolution(OPTIMAL, dsol.objective, x, dsol.primal)
    ok, why = verify_certificates(lp, sol)
    if not ok:
        raise LpError(f"primal recovered from the dual failed verification: {why}")
    return sol


def _dual_program(lp: LinearProgram, obj_var: int) -> LinearProgram:
    """min {b.y : -A^T y <= -e_obj, y >= 0}, the dual of
    max {x_obj : Ax <= b, x >= 0}; integer rows stay integers."""
    dual_rows = [({}, LE, -1 if j == obj_var else 0) for j in range(lp.num_vars)]
    for i, (coeffs, _, _) in enumerate(lp.rows):
        for j, c in coeffs:
            dual_rows[j][0][i] = -c
    return LinearProgram(len(lp.rows), "min", [rhs for _, _, rhs in lp.rows], dual_rows)


def validate_entropy_function(g: Graph, h) -> tuple[bool, str]:
    """Check a subset function h, indexed by mask, against every row of the
    full subset-entropy LP: h(empty) = 0, singletons at most 1, the
    elemental inequalities and the functional equalities.  The elemental
    rows imply monotonicity and submodularity on every pair of subsets, so
    this is the whole defining system in O(n^2 2^n) row evaluations.

    The rows are evaluated in integers, on h and the right-hand sides both
    scaled by the least common denominator of the entries of h."""
    if len(h) != g.vertex_mask + 1:
        return False, "h must have one value per vertex subset"
    scale = lcm(*(x.denominator for x in h))
    k = [x.numerator * (scale // x.denominator) for x in h]
    for coeffs, rel, rhs in _shannon_rows(g):
        value = sum(c * k[m] for m, c in coeffs.items())
        if value != rhs * scale if rel == EQ else value > rhs * scale:
            terms = " ".join(f"{c:+d}*h({m:b})" for m, c in coeffs.items())
            return False, f"row {terms} {rel} {rhs} fails"
    return True, "ok"


# -- bracket assembly ------------------------------------------------------------


class BoundsReport:
    """Certified interval [lower, upper] containing the entropy of one graph,
    with every bound behind it, each computed once: nu <= n - cc <=
    n - kappa_f on the lower side, tau and theta on the upper side.

    exact means the interval is a point.  Each side carries a witness, a
    dict whose "tag" names the argument ("matching", "clique-cover",
    "fractional-clique-cover", "transversal", "shannon-lp", "loop-reduction",
    "union-additivity") and whose other keys hold its data; the last two
    nest the witnesses of their parts under "inner".  theta is None when
    lazy_theta skipped the subset-entropy LP on some component, since the
    value of the whole graph is then unknown.
    """

    __slots__ = ("lower", "upper", "exact", "lower_witness", "upper_witness",
                 "nu", "cc", "kappa_f", "tau", "theta")

    def __init__(self, lower, upper, lower_witness, upper_witness,
                 nu: int, cc: int, kappa_f, tau: int, theta):
        self.lower = Rational(lower)
        self.upper = Rational(upper)
        if self.lower > self.upper:
            raise AssertionError(f"crossed bracket [{self.lower}, {self.upper}]")
        self.exact = self.lower == self.upper
        self.lower_witness = lower_witness
        self.upper_witness = upper_witness
        self.nu = nu
        self.cc = cc
        self.kappa_f = kappa_f
        self.tau = tau
        self.theta = theta

    def __repr__(self):
        return f"BoundsReport([{self.lower}, {self.upper}], exact={self.exact})"


def _vertices(mask: int) -> list[int]:
    return list(bits_of(mask))


def union_report(components: list[list[int]], parts: list[BoundsReport]) -> BoundsReport:
    """Report of a disjoint union: every value adds over the parts (entropy
    is additive over components, and every matching edge, clique and cycle
    lies inside one), and each side's witness lists the component vertex
    lists with the parts' witnesses for that side.  theta is None when some
    part's is."""
    thetas = [p.theta for p in parts]
    return BoundsReport(
        sum((p.lower for p in parts), Rational(0)),
        sum((p.upper for p in parts), Rational(0)),
        {"tag": "union-additivity", "components": components,
         "inner": [p.lower_witness for p in parts]},
        {"tag": "union-additivity", "components": components,
         "inner": [p.upper_witness for p in parts]},
        sum(p.nu for p in parts),
        sum(p.cc for p in parts),
        sum((p.kappa_f for p in parts), Rational(0)),
        sum(p.tau for p in parts),
        None if None in thetas else sum(thetas, Rational(0)),
    )


def bounds_report(g: Graph, shannon_cap: int = DEFAULT_SHANNON_CAP,
                  lazy_theta: bool = False) -> BoundsReport:
    """Best certified bracket for the entropy of g, with every bound behind it.

    Pipeline: strip looped vertices (each contributes exactly 1), split into
    weakly connected components (union_report adds their reports; the empty
    graph has none), then per component take lower = n - fractional clique
    cover number (never worse than the matching or integral cover bounds)
    and upper = min(transversal, LP).  With lazy_theta the LP is skipped
    whenever the transversal already meets the lower bound.

    Across the loop strip tau and theta add the loop count, but nu, cc and
    kappa_f do not (a looped vertex still sits in a clique), so those three
    are taken on the looped graph itself.
    """
    lp_mask = loops(g)
    if lp_mask:
        sub, _ = induced_subgraph(g, g.vertex_mask & ~lp_mask)
        inner = bounds_report(sub, shannon_cap, lazy_theta)
        k = lp_mask.bit_count()
        looped = _vertices(lp_mask)
        cc, cover = clique_cover_number(g)
        return BoundsReport(
            inner.lower + k, inner.upper + k,
            {"tag": "loop-reduction", "loops": looped, "inner": inner.lower_witness},
            {"tag": "loop-reduction", "loops": looped, "inner": inner.upper_witness},
            max_matching(g).size, cc, _fractional_cover(g, cc, cover)[0], inner.tau + k,
            None if inner.theta is None else inner.theta + k)
    comps = connected_components(g)
    if len(comps) != 1:
        return union_report(
            [_vertices(comp) for comp in comps],
            [bounds_report(induced_subgraph(g, comp)[0], shannon_cap, lazy_theta)
             for comp in comps])
    n = g.n
    matching = max_matching(g)
    cc, cover = clique_cover_number(g)
    kappa_f, family = _fractional_cover(g, cc, cover)
    tau, removed = transversal_number(g)
    lower = n - kappa_f
    assert Rational(matching.size) <= Rational(n - cc) <= lower
    if matching.size == lower:
        low_wit = {"tag": "matching", "edges": [list(e) for e in matching.edges]}
    elif n - cc == lower:
        low_wit = {"tag": "clique-cover", "cliques": [_vertices(c) for c in cover]}
    else:
        low_wit = {
            "tag": "fractional-clique-cover",
            "cliques": [_vertices(c) for c in family.cliques],
            "weights": list(family.weights),
            "value": kappa_f,
        }
    upper, up_wit = Rational(tau), {"tag": "transversal", "removed": _vertices(removed)}
    theta = None
    if not (lazy_theta and upper == lower):
        theta = shannon_entropy(g, cap=shannon_cap).theta
        if theta < upper:
            upper, up_wit = theta, {"tag": "shannon-lp", "theta": theta}
    return BoundsReport(lower, upper, low_wit, up_wit, matching.size, cc, kappa_f, tau, theta)


def entropy_bracket(g: Graph, lazy_theta: bool = False) -> BoundsReport:
    """bounds_report of g; the name stays because the benchmark's tracer
    (perfbench/tracer.py) times this function by name."""
    return bounds_report(g, lazy_theta=lazy_theta)


def shannon_theta(g: Graph) -> Rational:
    """Value of the subset-entropy LP for g, computed loop-stripped and
    componentwise (both reductions are exact for this LP, not just bounds)."""
    return bounds_report(g).theta
