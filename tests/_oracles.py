"""Reference implementations used only by the tests.

Each layer of the package is held to an oracle here that recomputes its
answers from the definition, without the package's algorithms:

- matchings, independent sets, transversals and colourings by subset sweeps
  and backtracking (brute_matching, max_independent_set, brute_transversal,
  chromatic_number, bipartite_matching_size);
- linear programs by vertex enumeration (lp_vertex_solve), and the exact
  basis solve and certificate check in rational arithmetic
  (rational_solve_linear, rational_verify_certificates);
- entropy functions by the 4^n pair sweep (exhaustive_entropy_check);
- isomorphism classes over every relabelling (least_adjacency_bits,
  labeled_class_count), and automorphisms as every arc-preserving
  permutation (all_automorphisms);
- guessing games from word compatibility, networkx cliques and full strategy
  profiles (words_compatible, clique_code_size, profile_code_size).

unanchored_max_clique is the one search kept as a specification: which
maximum clique guess reports is the one it finds.  The graph constructions
under "reductions" are inputs and contractions that only the tests need.
Slow on purpose; sized for the tiny inputs the tests feed them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

import networkx as nx

from graphentropy.graphs import (
    Graph,
    GraphError,
    bits_of,
    induced_subgraph,
    loops,
    mask_of,
)
from graphentropy.lp import (
    EQ,
    GE,
    LE,
    OPTIMAL,
    LinearProgram,
    LpSolution,
)
from graphentropy.rationals import Rational


def adjacency(g) -> dict[int, set[int]]:
    """Undirected adjacency sets, loops dropped."""
    return {v: {u for u in range(g.n) if u != v and g.has_arc(v, u) and g.has_arc(u, v)}
            for v in range(g.n)}


def out_neighbors(g) -> dict[int, set[int]]:
    return {v: {u for u in range(g.n) if g.has_arc(v, u)} for v in range(g.n)}


# -- matchings, cliques, covers ---------------------------------------------------


def brute_matching(g) -> int:
    """Maximum matching size by branching over the edge list."""
    edges = [e for e in g.edges() if e[0] != e[1]]

    def best(i: int, used: frozenset[int]) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        take = 0
        if u not in used and v not in used:
            take = 1 + best(i + 1, used | {u, v})
        return max(take, best(i + 1, used))

    return best(0, frozenset())


def chromatic_number(g) -> int:
    """Exact chromatic number by backtracking, loops rejected."""
    adj = adjacency(g)
    if any(g.has_arc(v, v) for v in range(g.n)):
        raise ValueError("chromatic number needs a loopless graph")
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors: dict[int, int] = {}

        def place(v: int) -> bool:
            if v == g.n:
                return True
            banned = {colors[u] for u in adj[v] if u in colors}
            for c in range(k):
                if c in banned:
                    continue
                colors[v] = c
                if place(v + 1):
                    return True
                del colors[v]
                if c not in colors.values():
                    break
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def complement_graph(g):
    edges = [(u, v) for u, v in combinations(range(g.n), 2)
             if not (g.has_arc(u, v) and g.has_arc(v, u))]
    return Graph.undirected(g.n, edges)


def max_independent_set(g) -> int:
    """A largest vertex mask with no mutual pair inside, by a subset sweep
    from the largest size down."""
    adj = adjacency(g)
    for k in range(g.n, -1, -1):
        for s in combinations(range(g.n), k):
            if not any(v in adj[u] for u, v in combinations(s, 2)):
                return mask_of(s)
    raise AssertionError("unreachable")


def bipartite_edges(g: Graph, left: int, right: int) -> list[tuple[int, int]]:
    """The edges of g crossing from left to right, left end first."""
    return [(u, v) for u in bits_of(left) for v in bits_of(right) if g.has_arc(u, v)]


def brute_transversal(g) -> int:
    """Smallest vertex set whose removal kills every directed cycle.

    Undirected edges stand for mutual arc pairs, so each surviving edge is
    already a 2-cycle: the undirected case degenerates to vertex cover.
    Loops are 1-cycles and force their vertex in.
    """
    looped = {v for v in range(g.n) if g.has_arc(v, v)}
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            removed = set(combo)
            if looped - removed:
                continue
            if g.directed:
                if _digraph_acyclic(g, removed):
                    return size
            else:
                adj = adjacency(g)
                if all(u in removed or v in removed
                       for u in adj for v in adj[u]):
                    return size
    raise AssertionError("unreachable")


def _digraph_acyclic(g, removed: set[int]) -> bool:
    nbrs = out_neighbors(g)
    state: dict[int, int] = {}

    def visit(v: int) -> bool:
        state[v] = 1
        for u in nbrs[v]:
            if u in removed:
                continue
            if state.get(u) == 1:
                return False
            if state.get(u) is None and not visit(u):
                return False
        state[v] = 2
        return True

    return all(visit(v) for v in range(g.n)
               if v not in removed and state.get(v) is None)


def bipartite_matching_size(pairs: list[tuple[int, int]]) -> int:
    """Exhaustive maximum matching over explicit edge pairs."""
    best = 0
    for size in range(len(pairs), 0, -1):
        if size <= best:
            break
        for combo in combinations(pairs, size):
            seen: set[int] = set()
            ok = True
            for a, b in combo:
                if a in seen or b + 10**6 in seen:
                    ok = False
                    break
                seen.add(a)
                seen.add(b + 10**6)
            if ok:
                best = size
                break
    return best


# -- linear programming by vertex enumeration ---------------------------------------


def lp_vertex_solve(lp):
    """Exact optimum of a nonneg-variable LP via basic feasible points.

    Returns ("optimal", value), ("infeasible", None) or ("unbounded", None).
    Only handles LPs without free variables; sizes stay tiny.
    """
    n = lp.num_vars
    rows = [([Fraction(dict(coeffs).get(j, 0)) for j in range(n)], rel, Fraction(rhs))
            for coeffs, rel, rhs in lp.rows]
    planes = [(row, rhs) for row, _, rhs in rows]
    planes += [([Fraction(int(i == j)) for i in range(n)], Fraction(0)) for j in range(n)]

    def feasible(x) -> bool:
        if any(v < 0 for v in x):
            return False
        for row, rel, rhs in rows:
            lhs = sum(a * v for a, v in zip(row, x))
            if rel == "<=" and lhs > rhs:
                return False
            if rel == ">=" and lhs < rhs:
                return False
            if rel == "=" and lhs != rhs:
                return False
        return True

    objective = [Fraction(c) for c in lp.objective]
    sign = 1 if lp.sense == "max" else -1
    best = None
    for combo in combinations(range(len(planes)), n):
        x = solve_square([planes[i][0] for i in combo], [planes[i][1] for i in combo])
        if x is None or not feasible(x):
            continue
        value = sum(c * v for c, v in zip(objective, x))
        if best is None or sign * value > sign * best:
            best = value
    if best is None:
        return "infeasible", None
    ray = _improving_ray(lp, objective)
    if ray:
        return "unbounded", None
    return "optimal", best


def _improving_ray(lp, objective) -> bool:
    """Does the recession cone contain a direction with positive gain?

    Normalizes directions to sum 1 and vertex-enumerates that polytope.
    """
    n = lp.num_vars
    sign = 1 if lp.sense == "max" else -1
    cone_rows = [([Fraction(dict(coeffs).get(j, 0)) for j in range(n)], rel)
                 for coeffs, rel, _ in lp.rows]
    planes = [([Fraction(1)] * n, Fraction(1))]
    for row, rel in cone_rows:
        if rel == "=":
            planes.append((row, Fraction(0)))
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        planes.append((e, Fraction(0)))
    for row, rel in cone_rows:
        if rel != "=":
            planes.append((row, Fraction(0)))

    def in_cone(d) -> bool:
        if any(v < 0 for v in d) or sum(d) != 1:
            return False
        for row, rel in cone_rows:
            dot = sum(a * b for a, b in zip(row, d))
            if rel == "<=" and dot > 0:
                return False
            if rel == ">=" and dot < 0:
                return False
            if rel == "=" and dot != 0:
                return False
        return True

    for combo in combinations(range(len(planes)), n):
        rows = [planes[i][0] for i in combo]
        rhs = [planes[i][1] for i in combo]
        d = solve_square(rows, rhs)
        if d is None or not in_cone(d):
            continue
        if sign * sum(c * v for c, v in zip(objective, d)) > 0:
            return True
    return False


def solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv if v else v for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b if b else a for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


# -- entropy functions ------------------------------------------------------------


def exhaustive_entropy_check(g, h) -> bool:
    """Whether h, indexed by vertex mask, meets the subset-entropy constraints
    as defined: h(empty) = 0, singletons at most 1, monotone on every nested
    pair, submodular on every pair of subsets (all 4^n of them), and
    h(N(v) + v) = h(N(v)) for the in-neighbourhood N(v) of every vertex.

    The sweep runs on h scaled by a common denominator, in integers.
    """
    size = 1 << g.n
    if len(h) != size:
        return False
    scale = lcm(*(Fraction(x).denominator for x in h))
    k = [int(Fraction(x) * scale) for x in h]
    if k[0] != 0 or any(k[1 << v] > scale for v in range(g.n)):
        return False
    for s, t in product(range(size), repeat=2):
        if s & t == s and k[s] > k[t]:
            return False
        if k[s | t] + k[s & t] > k[s] + k[t]:
            return False
    for v in range(g.n):
        inn = sum(1 << u for u in range(g.n) if g.has_arc(u, v))
        if k[inn | 1 << v] != k[inn]:
            return False
    return True


# -- canonicalization -------------------------------------------------------------


def least_adjacency_bits(g) -> int:
    """The least adjacency bit-string over every relabelling of a simple
    graph: pair (i, j), i < j, ordered by (j, i), most significant bit first.
    Two graphs get the same value exactly when they are isomorphic."""
    n = g.n
    weight = {}
    pos = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            weight[i, j] = weight[j, i] = 1 << pos
    edges = g.edges()
    return min(sum(weight[perm[u], perm[v]] for u, v in edges)
               for perm in permutations(range(n)))


def labeled_class_count(n: int) -> int:
    """Number of isomorphism classes of simple graphs on n vertices, over
    all 2^(n(n-1)/2) labelled ones."""
    pairs = list(combinations(range(n), 2))
    return len({least_adjacency_bits(Graph.undirected(n, [p for i, p in enumerate(pairs)
                                                           if bits >> i & 1]))
                for bits in range(1 << len(pairs))})


# -- symmetry ---------------------------------------------------------------------


def all_automorphisms(g: Graph, cap: int = 50000) -> tuple[tuple[int, ...], ...]:
    """Every arc-preserving vertex permutation, or just the identity if more
    than cap of them exist.

    Backtracking over degree-compatible images; when it completes within the
    cap the result is the whole automorphism group, sorted.
    """
    n = g.n
    rows = g.rows
    cols = g.cols
    sig = [(rows[v].bit_count(), cols[v].bit_count(), rows[v] >> v & 1)
           for v in range(n)]
    out: list[tuple[int, ...]] = []
    img = [-1] * n
    used = [False] * n
    overflow = False

    def dfs(v: int) -> None:
        nonlocal overflow
        if overflow:
            return
        if v == n:
            out.append(tuple(img))
            if len(out) > cap:
                overflow = True
            return
        for w in range(n):
            if used[w] or sig[w] != sig[v]:
                continue
            ok = True
            for u in range(v):
                if (rows[v] >> u & 1) != (rows[w] >> img[u] & 1) or \
                   (rows[u] >> v & 1) != (rows[img[u]] >> w & 1):
                    ok = False
                    break
            if ok:
                img[v] = w
                used[w] = True
                dfs(v + 1)
                used[w] = False
                img[v] = -1

    if n:
        dfs(0)
    if overflow or not out:
        return (tuple(range(n)),)
    return tuple(sorted(out))


# -- guessing games ---------------------------------------------------------------


def words_compatible(g, q: int, w: tuple[int, ...], x: tuple[int, ...]) -> bool:
    """One strategy can fix both words: wherever the inputs agree, so must the outputs."""
    return all(w[v] == x[v] or any(w[u] != x[u] for u in range(g.n) if g.has_arc(u, v))
               for v in range(g.n))


def clique_code_size(g, q: int) -> int:
    """Largest pairwise-compatible word set, via networkx clique search."""
    words = list(product(range(q), repeat=g.n))
    cg = nx.Graph()
    cg.add_nodes_from(range(len(words)))
    for i, j in combinations(range(len(words)), 2):
        if words_compatible(g, q, words[i], words[j]):
            cg.add_edge(i, j)
    return max((len(c) for c in nx.find_cliques(cg)), default=1 if words else 0)


def profile_code_size(g, q: int) -> int:
    """Largest fixed-point set over every full strategy profile.

    The gold-standard oracle straight from the game: feasible only when the
    profile space is small (about two million profiles).
    """
    words = list(product(range(q), repeat=g.n))
    per_vertex = []
    total = 1
    for v in range(g.n):
        preds = [u for u in range(g.n) if g.has_arc(u, v)]
        tables = list(product(range(q), repeat=q ** len(preds)))
        total *= len(tables)
        assert total <= 2_200_000, "profile space too large for this oracle"
        masks = []
        for table in tables:
            mask = 0
            for i, w in enumerate(words):
                key = 0
                for u in preds:
                    key = key * q + w[u]
                if table[key] == w[v]:
                    mask |= 1 << i
            masks.append(mask)
        per_vertex.append(masks)

    best = 0
    full = (1 << len(words)) - 1

    def descend(v: int, fixed: int) -> None:
        nonlocal best
        if fixed.bit_count() <= best:
            return
        if v == g.n:
            best = fixed.bit_count()
            return
        for mask in per_vertex[v]:
            descend(v + 1, fixed & mask)

    descend(0, full)
    return best


# The clique search guess used before it was anchored on word 0, kept as the
# specification of the reported code: the anchored search must return exactly
# its mask, not just a clique of the same size.
def unanchored_max_clique(rows: list[int]) -> int:
    """Mask of a maximum clique, by branch and bound with greedy colouring.

    Candidates are coloured greedily (each colour class an independent set)
    and explored from the highest colour down, so the colour count bounds
    every remaining branch.  Deterministic: lowest word index first at every
    choice point.
    """
    n = len(rows)
    if n == 0:
        return 0
    best_mask = 0
    best_size = 0

    def color_order(cand: int) -> list[tuple[int, int]]:
        out = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                out.append((v, color))
                rest ^= low
                avail = avail & ~low & ~rows[v]
        return out

    # Depth-first with an explicit stack, since a clique can be deeper than
    # Python's recursion limit.  Each frame is [clique, size, cand, order];
    # its colour order is consumed from the highest colour down.
    full = (1 << n) - 1
    stack = [[0, 0, full, color_order(full)]]
    while stack:
        frame = stack[-1]
        clique, size, cand, order = frame
        if not order:
            stack.pop()
            continue
        v, color = order.pop()
        if size + color <= best_size:
            stack.pop()
            continue
        bit = 1 << v
        inner = cand & rows[v]
        frame[2] = cand & ~bit
        if inner:
            stack.append([clique | bit, size + 1, inner, color_order(inner)])
        elif size + 1 > best_size:
            best_size = size + 1
            best_mask = clique | bit
    return best_mask


# -- reductions -------------------------------------------------------------------


# Graph constructions that only the tests use: disjoint unions as inputs,
# and the acyclic-set contraction whose guessing bound the tests check.
def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Place g2 after g1 on a common vertex set with no arcs in between."""
    shift = g1.n
    rows = list(g1.rows) + [r << shift for r in g2.rows]
    return Graph(g1.n + g2.n, rows, g1.directed or g2.directed)


def is_acyclic(g: Graph) -> bool:
    """True iff the digraph has no directed cycle (a loop is a cycle;
    an undirected edge, read as two opposite arcs, is one too)."""
    if loops(g):
        return False
    # Kahn peeling on masks.
    alive = g.vertex_mask
    cols = g.cols
    changed = True
    while alive and changed:
        changed = False
        for v in bits_of(alive):
            if cols[v] & alive == 0:
                alive ^= 1 << v
                changed = True
    return alive == 0


def i_reduction(g: Graph, i: int) -> tuple[Graph, tuple[int, ...]]:
    """Contract an acyclic vertex set i out of the digraph.

    The result lives on V minus i; it keeps every original arc between
    survivors and adds an arc u->v whenever some directed path leaves u,
    travels only through i, and lands on v.  u == v is allowed, so a round
    trip through i becomes a loop; dropping those would break the guessing
    bound this contraction exists for.
    Returns (reduced graph, vertices) relabelled like induced_subgraph.
    """
    inner, _ = induced_subgraph(g, i)
    if not is_acyclic(inner):
        raise GraphError("contracted set must induce an acyclic subgraph")
    keep = g.vertex_mask & ~i
    verts = tuple(bits_of(keep))
    index = {v: k for k, v in enumerate(verts)}
    rows = []
    for u in verts:
        seen = 0
        frontier = g.rows[u] & i
        while frontier:
            seen |= frontier
            nxt = 0
            for x in bits_of(frontier):
                nxt |= g.rows[x]
            frontier = nxt & i & ~seen
        arcs = g.rows[u]
        for x in bits_of(seen):
            arcs |= g.rows[x]
        r = 0
        for v in bits_of(arcs & keep):
            r |= 1 << index[v]
        rows.append(r)
    return Graph(len(verts), rows, directed=True), verts


def cycles_avoiding(g, banned: set[int]) -> set[frozenset[int]]:
    """Vertex sets of simple directed cycles avoiding `banned` (loops included)."""
    nbrs = out_neighbors(g)
    found: set[frozenset[int]] = set()
    verts = [v for v in range(g.n) if v not in banned]
    for start in verts:
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            for u in nbrs[v]:
                if u in banned or u < start:
                    continue
                if u == start:
                    found.add(frozenset(path))
                elif u not in path:
                    stack.append((u, path + (u,)))
    return found


# -- exact LP arithmetic over rationals --------------------------------------------


# The exact basis solve and certificate check in plain rational arithmetic:
# the package's integer versions must give exactly their answers.
def rational_solve_linear(rows, rhs):
    """Solve a square exact system by Gaussian elimination.

    Returns (solution, []) when the matrix is nonsingular.  Otherwise returns
    (None, pairs), pairing each column that depends on the columns before it
    with a row those columns leave without a pivot.
    """
    n = len(rows)
    mat = [list(rows[i]) + [rhs[i]] for i in range(n)]
    order = list(range(n))
    dependent = []
    r = 0
    for col in range(n):
        prow = next((i for i in range(r, n) if mat[i][col]), -1)
        if prow < 0:
            dependent.append(col)
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        order[r], order[prow] = order[prow], order[r]
        piv_row = mat[r]
        inv = 1 / piv_row[col]
        if inv != 1:
            piv_row = [c * inv if c else c for c in piv_row]
            mat[r] = piv_row
        for i in range(r + 1, n):
            f = mat[i][col]
            if f:
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], piv_row)]
        r += 1
    if dependent:
        return None, list(zip(dependent, order[r:]))
    out = [Rational(0)] * n
    for i in range(n - 1, -1, -1):
        acc = mat[i][n]
        row = mat[i]
        for j in range(i + 1, n):
            if row[j]:
                acc -= row[j] * out[j]
        out[i] = acc
    return out, []


def rational_verify_certificates(lp: LinearProgram, sol: LpSolution) -> tuple[bool, str]:
    """First-principles optimality check: primal feasibility, dual sign and
    stationarity conditions, and exact equality of the two objectives."""
    if sol.status != OPTIMAL:
        return False, f"no certificates for status {sol.status}"
    x, y = sol.primal, sol.dual
    if x is None or y is None or len(x) != lp.num_vars or len(y) != len(lp.rows):
        return False, "certificate vectors missing or mis-sized"
    for j in range(lp.num_vars):
        if x[j] < 0:
            return False, f"primal variable {j} negative"
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        lhs = sum((c * x[j] for j, c in coeffs), Rational(0))
        if rel == LE and lhs > rhs:
            return False, f"row {i} violated"
        if rel == GE and lhs < rhs:
            return False, f"row {i} violated"
        if rel == EQ and lhs != rhs:
            return False, f"row {i} violated"
    maximize = lp.sense == "max"
    for i, (_, rel, _) in enumerate(lp.rows):
        if rel == LE and (y[i] < 0 if maximize else y[i] > 0):
            return False, f"dual sign wrong on row {i}"
        if rel == GE and (y[i] > 0 if maximize else y[i] < 0):
            return False, f"dual sign wrong on row {i}"
    d = [Rational(0)] * lp.num_vars
    for i, (coeffs, _, _) in enumerate(lp.rows):
        yi = y[i]
        if yi:
            for j, c in coeffs:
                d[j] += yi * c
    for j in range(lp.num_vars):
        cj = lp.objective[j]
        if maximize and d[j] < cj:
            return False, f"dual stationarity fails on variable {j}"
        elif not maximize and d[j] > cj:
            return False, f"dual stationarity fails on variable {j}"
    primal_obj = sum((lp.objective[j] * x[j] for j in range(lp.num_vars)), Rational(0))
    dual_obj = sum((y[i] * lp.rows[i][2] for i in range(len(lp.rows))), Rational(0))
    if primal_obj != dual_obj:
        return False, "duality gap is nonzero"
    if sol.objective != primal_obj:
        return False, "reported objective mismatches the primal point"
    return True, "ok"
