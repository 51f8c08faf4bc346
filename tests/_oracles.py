"""Independent reference implementations used only by the tests.

Everything here recomputes answers from definitions, avoiding the package's
own algorithms and data layouts: dict adjacency instead of bitmask rows,
itertools subset sweeps instead of branch and bound, vertex enumeration
instead of simplex.  Slow on purpose; sized for the tiny inputs the tests
feed them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm

import networkx as nx

from graphentropy.bounds import closure_map, max_matching
from graphentropy.graphs import (
    CapExceededError,
    Graph,
    GraphError,
    automorphisms,
    bits_of,
    co_neighborhood_set,
    induced_subgraph,
    loops,
    mask_of,
    orbit_representatives,
    render_graph,
)
from graphentropy.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    _lcd,
    _times,
)
from graphentropy.rationals import Rational
from graphentropy.structure import (
    DEFAULT_REDUCTION_CAP,
    find_reducible_set,
    find_saturating_subset,
)


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


def previous_feedback_vertex_set(g: Graph) -> tuple[int, int]:
    """bounds._feedback_vertex_set as it was before its cycle search became
    one BFS per start vertex: the reference its witnesses must match."""
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
    planes = [(dict(coeffs), rhs) for coeffs, rel, rhs in lp.rows]
    planes += [({j: Fraction(1)}, Fraction(0)) for j in range(n)]

    def feasible(x) -> bool:
        if any(v < 0 for v in x):
            return False
        for coeffs, rel, rhs in lp.rows:
            lhs = sum(Fraction(str(c)) * x[j] for j, c in coeffs)
            r = Fraction(str(rhs))
            if rel == "<=" and lhs > r:
                return False
            if rel == ">=" and lhs < r:
                return False
            if rel == "=" and lhs != r:
                return False
        return True

    objective = [Fraction(str(c)) for c in lp.objective]
    sign = 1 if lp.sense == "max" else -1
    best = None
    for combo in combinations(range(len(planes)), n):
        rows = []
        rhs = []
        for idx in combo:
            coeffs, b = planes[idx]
            rows.append([Fraction(str(coeffs.get(j, 0))) for j in range(n)])
            rhs.append(Fraction(str(b)))
        x = solve_square(rows, rhs)
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
    cone_rows = []
    for coeffs, rel, rhs in lp.rows:
        row = [Fraction(str(dict(coeffs).get(j, 0))) for j in range(n)]
        cone_rows.append((row, rel))
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
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
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


def perm_class_key(g) -> frozenset[frozenset[int]]:
    """Isomorphism-class key: the set of all permuted edge sets."""
    edges = [(u, v) for u, v in g.edges() if u != v]
    keys = set()
    for perm in permutations(range(g.n)):
        keys.add(frozenset(frozenset((perm[u], perm[v])) for u, v in edges))
    return frozenset(keys)


def labeled_class_count(n: int) -> int:
    """Number of isomorphism classes of simple graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        canon = min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
            for perm in permutations(range(n))
        )
        seen.add(canon)
    return len(seen)


# The package's canonical form and enumerator as they were before candidates
# had to pass the maximum-degree and top-colour tests, kept verbatim under
# new names (calls among them renamed too): the new search must give exactly
# these bits, and the enumerator exactly this tuple, representatives and
# order included.
def _previous_refined_colors(g: Graph) -> list[int]:
    """Stable vertex colouring: degree, refined by the sorted colours of the neighbours."""
    colors = [g.rows[v].bit_count() for v in range(g.n)]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in bits_of(g.rows[v]))))
            for v in range(g.n)
        ]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [relabel[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


# The package's canonical-form carrier before canonical_form returned the
# canonical Graph itself, kept verbatim for the oracles below.
class CanonicalForm:
    """Permutation-invariant fingerprint of a simple graph.

    bits packs the upper triangle of the adjacency matrix column by column,
    pair (i, j) with i < j ordered by (j, i), most significant bit first; the
    stored value is the least over all vertex relabelings, so two graphs get
    equal forms exactly when they are isomorphic.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        self.n = n
        self.bits = bits

    def key(self) -> tuple[int, int]:
        return (self.n, self.bits)

    def graph(self) -> Graph:
        """The canonical representative itself."""
        n = self.n
        rows = [0] * n
        pos = n * (n - 1) // 2
        for j in range(n):
            for i in range(j):
                pos -= 1
                if self.bits >> pos & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return Graph(n, rows, directed=False)

    def graph6(self) -> str:
        return render_graph(self.graph(), "graph6")

    def __eq__(self, other) -> bool:
        return isinstance(other, CanonicalForm) and self.key() == other.key()

    def __lt__(self, other) -> bool:
        return self.key() < other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"CanonicalForm(n={self.n}, bits={self.bits:b})"


def previous_canonical_form(g: Graph) -> CanonicalForm:
    """Least adjacency bit-string over all relabelings of a simple graph.

    Vertices are first split by refined colour; target positions follow the
    colour order, and the search only permutes vertices inside their own
    colour class, with prefix pruning against the best string so far.  The
    minimum over that restricted set equals the global minimum because
    colours are isomorphism-invariant.
    """
    if not g.is_simple():
        raise GraphError("canonical forms are defined for loopless undirected graphs")
    n = g.n
    if n == 0:
        return CanonicalForm(0, 0)
    colors = _previous_refined_colors(g)
    slot_color = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    total_bits = n * (n - 1) // 2
    best: int | None = None
    placed = [0] * n
    rows = g.rows

    def extend(depth: int, prefix: int, width: int, used: int) -> None:
        nonlocal best
        if depth == n:
            if best is None or prefix < best:
                best = prefix
            return
        col_bits = depth
        for v in by_color[slot_color[depth]]:
            bit = 1 << v
            if used & bit:
                continue
            chunk = 0
            row = rows[v]
            for i in range(depth):
                chunk = chunk << 1 | (row >> placed[i] & 1)
            new_prefix = prefix << col_bits | chunk
            new_width = width + col_bits
            if best is not None and new_prefix > best >> (total_bits - new_width):
                continue
            placed[depth] = v
            extend(depth + 1, new_prefix, new_width, used | bit)

    extend(0, 0, 0, 0)
    assert best is not None
    return CanonicalForm(n, best)


@lru_cache(maxsize=None)
def previous_isomorphism_classes(n: int) -> tuple[Graph, ...]:
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n == 0:
        return (Graph.empty(0),)
    seen: dict[tuple[int, int], CanonicalForm] = {}
    for base in previous_isomorphism_classes(n - 1):
        rep = orbit_representatives(automorphisms(base), range(1 << (n - 1)))
        for attach in range(1 << (n - 1)):
            if rep[attach] != attach:
                continue
            rows = [r | (attach >> v & 1) << (n - 1) for v, r in enumerate(base.rows)]
            rows.append(attach)
            form = previous_canonical_form(Graph(n, rows, directed=False))
            seen.setdefault(form.key(), form)
    return tuple(seen[k].graph() for k in sorted(seen))


# The package's enumerator as it was before it tried one attachment set per
# automorphism orbit, kept verbatim under a new name except that it calls
# previous_canonical_form above: the pruned enumerator must return exactly
# its tuple, representatives and order included.
@lru_cache(maxsize=None)
def unpruned_isomorphism_classes(n: int) -> tuple[Graph, ...]:
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n == 0:
        return (Graph.empty(0),)
    seen: dict[tuple[int, int], CanonicalForm] = {}
    for base in unpruned_isomorphism_classes(n - 1):
        for attach in range(1 << (n - 1)):
            rows = [r | (attach >> v & 1) << (n - 1) for v, r in enumerate(base.rows)]
            rows.append(attach)
            form = previous_canonical_form(Graph(n, rows, directed=False))
            seen.setdefault(form.key(), form)
    return tuple(seen[k].graph() for k in sorted(seen))


# The package's canonical search as it was before it skipped twins, kept
# verbatim under a new name: the search that skips a vertex while a
# lower-numbered twin of it is unplaced must return exactly these bits.
def untwinned_canonical_search(rows: tuple[int, ...] | list[int], colors: list[int]) -> int:
    """Least adjacency bit-string of the simple graph with these rows, given
    its refined colours."""
    n = len(rows)
    if n == 0:
        return 0
    slot_color = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    total_bits = n * (n - 1) // 2
    best: int | None = None
    placed = [0] * n

    def extend(depth: int, prefix: int, width: int, used: int) -> None:
        nonlocal best
        if depth == n:
            if best is None or prefix < best:
                best = prefix
            return
        col_bits = depth
        for v in by_color[slot_color[depth]]:
            bit = 1 << v
            if used & bit:
                continue
            chunk = 0
            row = rows[v]
            for i in range(depth):
                chunk = chunk << 1 | (row >> placed[i] & 1)
            new_prefix = prefix << col_bits | chunk
            new_width = width + col_bits
            if best is not None and new_prefix > best >> (total_bits - new_width):
                continue
            placed[depth] = v
            extend(depth + 1, new_prefix, new_width, used | bit)

    extend(0, 0, 0, 0)
    assert best is not None
    return best


# -- symmetry ---------------------------------------------------------------------


# The package's automorphism search as it was when it listed the whole group,
# kept verbatim under a new name: the group generated by the strong generators
# must be exactly this list, and every orbit minimum must agree with it.
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
    for v in range(g.n):
        inputs_w = tuple(w[u] for u in range(g.n) if g.has_arc(u, v))
        inputs_x = tuple(x[u] for u in range(g.n) if g.has_arc(u, v))
        if inputs_w == inputs_x and w[v] != x[v]:
            return False
    return True


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


# The package's compatibility graph construction as it was before row 0 and
# the symbol shifts built it, kept under a new name: per vertex, words are
# bucketed on their in-neighbourhood restriction and every pair of buckets
# that differ at the vertex marks its words incompatible.
def previous_compatibility_rows(g, q: int) -> list[int]:
    """Rows of the compatibility graph on all q**n words in lexicographic
    order, row i the mask of words compatible with word i (i excluded)."""
    words = list(product(range(q), repeat=g.n))
    total = len(words)
    bad = [0] * total
    cols = g.cols
    for v in range(g.n):
        key_at = list(bits_of(cols[v]))
        buckets: dict[tuple[int, ...], dict[int, int]] = {}
        for i, w in enumerate(words):
            per_digit = buckets.setdefault(tuple(w[u] for u in key_at), {})
            per_digit[w[v]] = per_digit.get(w[v], 0) | 1 << i
        for per_digit in buckets.values():
            if len(per_digit) < 2:
                continue
            union = 0
            for m in per_digit.values():
                union |= m
            for m in per_digit.values():
                others = union & ~m
                for i in bits_of(m):
                    bad[i] |= others
    full = (1 << total) - 1
    return [full & ~(bad[i] | 1 << i) for i in range(total)]


# The package's clique search as it was before it was anchored on word 0,
# kept verbatim under a new name: the anchored search must return exactly
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


# -- minimality certificate -------------------------------------------------------
# The package's report class and certify_entropy_minimal_candidate before the
# certificate became a plain dict, kept verbatim under a new name except that
# the matched-vertex mask is formed from max_matching's edge list, as the
# removed MatchingResult formed it: the dict must equal as_dict() below, key
# order included.


class MinimalityReport:
    """Outcome of the necessary-condition checks for entropy minimality.

    candidate means no reducible set exists.  The matched-vertex comparison
    records |c(M)| against |M| for a maximum matching's vertex set M; when
    c(M) outnumbers M and has edges into it, the saturating-subset argument
    pinpoints a reducible S, so that situation only arises alongside a
    reducible set anyway.  Isolated vertices are reported on the side: they
    inflate c(M) without ever carrying a matching.
    """

    __slots__ = ("graph", "reducible", "candidate", "matched", "c_of_m", "comparison",
                 "isolated", "lemma_witness")

    def __init__(self, graph, reducible, matched, c_of_m, comparison, isolated, lemma_witness):
        self.graph = graph
        self.reducible = reducible
        self.candidate = reducible is None
        self.matched = matched
        self.c_of_m = c_of_m
        self.comparison = comparison
        self.isolated = isolated
        self.lemma_witness = lemma_witness

    def as_dict(self) -> dict:
        out = {
            "candidate": self.candidate,
            "reducible": None,
            "matched_vertices": sorted(bits_of(self.matched)),
            "isolated_vertices": sorted(bits_of(self.isolated)),
        }
        if self.reducible is not None:
            out["reducible"] = {
                "s": sorted(bits_of(self.reducible.s)),
                "matching": [list(p) for p in self.reducible.matching],
            }
        if self.c_of_m is not None:
            out["c_of_matched"] = sorted(bits_of(self.c_of_m))
            out["comparison"] = self.comparison
        if self.lemma_witness is not None:
            a_prime, matching = self.lemma_witness
            out["saturating_witness"] = {
                "a_prime": sorted(bits_of(a_prime)),
                "matching": [list(p) for p in matching],
            }
        return out

    def __repr__(self) -> str:
        return f"MinimalityReport(candidate={self.candidate})"


def previous_certify_entropy_minimal_candidate(g: Graph, cap: int = DEFAULT_REDUCTION_CAP) -> MinimalityReport:
    """Run the necessary conditions for entropy minimality and report them.

    A candidate has no reducible set.  The report also compares |c(M)| with
    |M| for the vertex set M of a maximum matching: a candidate must come out
    strictly below, except through isolated vertices, which cannot take part
    in any matching and are listed separately.
    """
    if g.n > cap:
        raise CapExceededError(f"vertex count {g.n} exceeds the reduction cap {cap}",
                               flag="--cap")
    reducible = find_reducible_set(g, cap)
    matched = 0
    for u, v in max_matching(g)[1]:
        matched |= 1 << u | 1 << v
    isolated = mask_of(v for v in range(g.n) if not g.rows[v] & ~(1 << v))
    c_of_m = None
    comparison = None
    witness = None
    if matched:
        c_of_m = co_neighborhood_set(g, matched)
        rel = "<" if c_of_m.bit_count() < matched.bit_count() else ">="
        comparison = f"|c(M)| = {c_of_m.bit_count()} {rel} |M| = {matched.bit_count()}"
        if rel == ">=" and bipartite_edges(g, c_of_m, matched):
            witness = find_saturating_subset(g, c_of_m, matched)
    return MinimalityReport(g, reducible, matched, c_of_m, comparison, isolated, witness)


# -- exact LP arithmetic over rationals --------------------------------------------


# The package's exact basis solve and certificate check as they were before
# they moved to integers, kept verbatim under new names, so the integer
# versions can be held to exactly their answers.  The edits: a row's value is
# summed inline, where it called LinearProgram.row_value, and the checks for
# free variables, which programs no longer have, are gone.
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


# The package's exact basis solve as it was before one forward elimination
# replaced it, kept verbatim under a new name: fraction-free Gauss-Jordan
# elimination that solves one right-hand side per call.  The factorization
# that replaced it is held to exactly its answers and dependent pairs.
def gauss_jordan_solve_linear(rows, rhs):
    """Solve a square integer system by fraction-free Gauss-Jordan elimination.

    rows are sparse {column: int} maps without zero entries, rhs ints.  A
    pivot row p eliminates column col from row a as (p[col]*a - a[col]*p)/g,
    g = gcd(p[col], a[col]); when p[col]/g is not 1 the result is divided by
    its content, which keeps the entries small.  Every row stays a nonzero
    integer multiple of the row rational Gauss-Jordan elimination would
    hold, so the same entries are nonzero and the pivots and row swaps are
    those of rational elimination.

    Returns (solution, []) when the matrix is nonsingular, one Rational per
    unknown.  Otherwise returns (None, pairs), pairing each column that
    depends on the columns before it with a row those columns leave without
    a pivot.
    """
    n = len(rows)
    mat = list(rows)
    vec = list(rhs)
    order = list(range(n))
    dependent = []
    r = 0
    for col in range(n):
        prow = next((i for i in range(r, n) if col in mat[i]), -1)
        if prow < 0:
            dependent.append(col)
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        vec[r], vec[prow] = vec[prow], vec[r]
        order[r], order[prow] = order[prow], order[r]
        piv_row = mat[r]
        piv = piv_row[col]
        piv_b = vec[r]
        for i in range(n):
            row = mat[i]
            f = row.get(col)
            if f is None or i == r:
                continue
            g = gcd(piv, f)
            a, c = piv // g, f // g
            new = row.copy() if a == 1 else {k: a * v for k, v in row.items()}
            b = a * vec[i] - c * piv_b
            for k, v in piv_row.items():
                t = new.get(k, 0) - c * v
                if t:
                    new[k] = t
                else:
                    del new[k]
            if a != 1:
                g = gcd(b, *new.values())
                if g > 1:
                    new = {k: v // g for k, v in new.items()}
                    b //= g
            mat[i] = new
            vec[i] = b
        r += 1
    if dependent:
        return None, list(zip(dependent, order[r:]))
    # Row k now reads mat[k][k] * x_k = vec[k].
    return [Rational(vec[k], mat[k][k]) for k in range(n)], []


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


# The standard form and the exact simplex as they were when the standard form
# kept a flipped row copy (body) and per-row slack and artificial maps beside
# its column table, kept verbatim under new names, so the one-table layout
# and the simplex that reads it can be held to exactly their layout and
# outcomes.  The edits: the names, and the basis solve, which is the
# Gauss-Jordan oracle above; _lcd and _times, which did not change, are the
# package's own.
class _PreviousSetup:
    """Standard-form view shared by the exact and float paths: flipped rows,
    internal max-sense costs and the slack/artificial column layout.

    body[i] is row i with a negative right-hand side flipped, as (sparse
    {col: int} row, relation, int right-hand side), and cols[j] lists the
    (row, int) entries of column j, the identity columns' +-1 too.  cost
    holds the structural costs of the max-sense program."""

    __slots__ = ("lp", "maximize", "cost", "body", "cols", "flip", "slack_col",
                 "slack_sign", "art_col", "id_col", "art_cols", "ncols")


def previous_standardize(lp: LinearProgram) -> _PreviousSetup:
    s = _PreviousSetup()
    s.lp = lp
    s.maximize = lp.sense == "max"
    s.cost = list(lp.objective) if s.maximize else [-c for c in lp.objective]

    m = len(lp.rows)
    s.flip = [False] * m
    body = []
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        sign = 1
        if rhs < 0:
            sign = -1
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            s.flip[i] = True
        body.append(({j: sign * a for j, a in coeffs}, rel, sign * rhs))
    s.body = body

    # Column layout: structural | slack or surplus per inequality | artificials.
    s.slack_col = [-1] * m
    s.slack_sign = [1] * m
    s.art_col = [-1] * m
    at = lp.num_vars
    for i, (_, rel, _) in enumerate(body):
        if rel != EQ:
            s.slack_col[i] = at
            s.slack_sign[i] = 1 if rel == LE else -1
            at += 1
    arts = []
    for i, (_, rel, _) in enumerate(body):
        if rel != LE:
            s.art_col[i] = at
            arts.append(at)
            at += 1
    s.art_cols = arts
    s.ncols = at
    s.id_col = [s.slack_col[i] if body[i][1] == LE else s.art_col[i]
                for i in range(m)]
    cols = [[] for _ in range(at)]
    for i, (row, _, _) in enumerate(body):
        for j, a in row.items():
            cols[j].append((i, a))
        if s.slack_col[i] >= 0:
            cols[s.slack_col[i]].append((i, s.slack_sign[i]))
        if s.art_col[i] >= 0:
            cols[s.art_col[i]].append((i, 1))
    s.cols = cols
    return s


def previous_simplex(s: _PreviousSetup, basis) -> LpSolution:
    """The exact simplex, started from any basis (one column index per row).

    The basis is first factored and priced exactly; a column the others make
    dependent gives way to the identity column of a row they leave without a
    pivot.  An optimal basis is returned at once, and a primal feasible one
    continues with revised primal pivots under Bland's rule.  Any other basis
    is dropped for phase 1 from the slack/artificial basis.  Artificials
    never re-enter; one still basic, at zero, in phase 2 stays at zero.
    """
    arts = frozenset(s.art_cols)
    basis, z = _previous_basic_values(s, basis)
    if any(v < 0 for v in z) or any(z[k] for k, j in enumerate(basis) if j in arts):
        start = _previous_phase1(s, arts)
        if start is None:
            return LpSolution(INFEASIBLE)
        basis, z = start
    duals = _previous_optimize(s, basis, z, s.cost + [0] * (s.ncols - s.lp.num_vars), arts)
    if duals is None:
        return LpSolution(UNBOUNDED)
    w, den = duals
    x = [Rational(0)] * s.ncols
    for k, j in enumerate(basis):
        x[j] = z[k]
    return _previous_solution(s, x, [Rational(wi, den) for wi in w])


def _previous_phase1(s: _PreviousSetup, arts):
    """Basis and basic values with every artificial at zero, reached from the
    slack/artificial basis at cost -1 per artificial; None when the program
    is infeasible."""
    basis, z = _previous_basic_values(s, s.id_col)
    _previous_optimize(s, basis, z, [-1 if j in arts else 0 for j in range(s.ncols)], frozenset())
    if any(z[k] for k, j in enumerate(basis) if j in arts):
        return None
    return basis, z


def _previous_optimize(s: _PreviousSetup, basis, z, cost, fixed):
    """Primal pivots from a primal feasible basis until it prices out, with
    basis and z updated in place.  cost is one int per column.  Returns the
    optimal basis's integer duals and their denominator (w, den), or None
    when the program is unbounded."""
    while True:
        w, _ = gauss_jordan_solve_linear([dict(s.cols[j]) for j in basis], [cost[j] for j in basis])
        den = _lcd(w)
        w = [_times(v, den) for v in w]
        j = _previous_prices_out(s, cost, w, den)
        if j is None:
            return w, den
        if not _previous_exchange(s, basis, z, j, fixed):
            return None


def _previous_basic_values(s: _PreviousSetup, basis):
    """Exact basic values z with B z = b, and the basis they belong to: each
    dependent column is swapped for the identity column of the row it leaves
    without a pivot, which makes B nonsingular."""
    basis = list(basis)
    rhs = [rhs for _, _, rhs in s.body]
    z, dependent = gauss_jordan_solve_linear(_previous_basis_rows(s, basis), rhs)
    if dependent:
        for k, i in dependent:
            basis[k] = s.id_col[i]
        z, _ = gauss_jordan_solve_linear(_previous_basis_rows(s, basis), rhs)
    return basis, z


def _previous_basis_rows(s: _PreviousSetup, basis):
    """Rows of the basis matrix, as {position in basis: int}."""
    rows = [{} for _ in s.body]
    for k, j in enumerate(basis):
        for i, a in s.cols[j]:
            rows[i][k] = a
    return rows


def _previous_prices_out(s: _PreviousSetup, cost, w, den: int):
    """Bland's entering column: the lowest-indexed structural or slack column
    with a positive reduced cost against the duals w/den, w integers; None
    when the basis prices out.  Basic columns price to exactly zero, and
    artificials are never priced."""
    red = [c * den for c in cost[:s.lp.num_vars]]
    for (row, _, _), wi in zip(s.body, w):
        if wi:
            for j, a in row.items():
                red[j] -= wi * a
    j = next((j for j, r in enumerate(red) if r > 0), None)
    if j is not None:
        return j
    # A slack column is slack_sign times a unit column at zero cost; slack
    # columns follow the structural ones in row order.
    return next((s.slack_col[i] for i, wi in enumerate(w)
                 if s.slack_col[i] >= 0 and s.slack_sign[i] * wi < 0), None)


def _previous_exchange(s: _PreviousSetup, basis, z, j: int, fixed) -> bool:
    """One pivot bringing column j in: solve B d = A_j, pick the leaving
    column by the ratio test, on ties the lowest-indexed one, and move z
    along the edge.  A basic column in fixed (an artificial at zero) blocks,
    at ratio 0, any step with a nonzero entry in its row.  False when
    nothing blocks: the program is unbounded along the edge."""
    a = [0] * len(s.body)
    for i, v in s.cols[j]:
        a[i] = v
    d, _ = gauss_jordan_solve_linear(_previous_basis_rows(s, basis), a)
    leave, step = -1, None
    for k, dk in enumerate(d):
        if basis[k] in fixed:
            if not dk:
                continue
            ratio = z[k]  # zero
        elif dk > 0:
            ratio = z[k] / dk
        else:
            continue
        if step is None or ratio < step or (ratio == step and basis[k] < basis[leave]):
            leave, step = k, ratio
    if leave < 0:
        return False
    if step:
        for k, dk in enumerate(d):
            if dk:
                z[k] -= step * dk
    z[leave] = step
    basis[leave] = j
    return True


def _previous_solution(s: _PreviousSetup, x, y) -> LpSolution:
    """Optimal outcome from standard-form values x and row duals y."""
    lp = s.lp
    primal = x[:lp.num_vars]
    sign = 1 if s.maximize else -1
    dual = [-sign * yi if flip else sign * yi for yi, flip in zip(y, s.flip)]
    value = sum((lp.objective[j] * primal[j] for j in range(lp.num_vars)), Rational(0))
    return LpSolution(OPTIMAL, value, primal, dual)


# The float basis proposal and the closure-collapsed entropy LP as they were
# before the float pivot shed its per-pivot errstate and np.outer temporary
# and the collapse moved to one variable table, kept verbatim under new
# names, so the new versions can be held to exactly their results.  The
# edits: numpy is imported inside the proposal, it reads the row and cost
# scales and the structural column count by the values they always took on
# an integer program (1, 1, num_vars), and the collapse returns
# None where shannon_entropy returned a zero result, otherwise the program
# and the index of h(V) where shannon_entropy went on to solve it.  The
# proposal reads the layout of previous_standardize.
def previous_float_basis(s):
    """Basis proposed by a floating-point two-phase simplex, or None when
    numpy is missing or the float run fails.  Only a proposal: _simplex
    checks it exactly.

    Both phases price by steepest edge (Goldfarb and Reid, Math. Programming
    1977; Forrest and Goldfarb, Math. Programming 1992): among columns with
    reduced cost red_j > tol, enter the one maximising red_j^2 / gamma_j, with
    gamma_j = 1 + |B^-1 A_j|^2 the squared length of its edge.  The dense
    tableau holds B^-1 A, so the exact reference weights cost one pass over
    it per pivot, next to the rank-1 update.  An entropy dual has one
    nonzero right-hand side, so nearly every phase-1 pivot is degenerate.
    Dantzig's largest red_j made three times as many pivots on the entropy
    duals of up to 8 vertices, and on asymmetric 8-vertex ones it ended at
    singular or infeasible bases that cost the exact simplex minutes of
    pivoting; steepest edge proposes optimal bases there."""
    if not s.body:
        return None
    import numpy as np
    m = len(s.body)
    ncols = s.ncols
    tol = 1e-9
    T = np.zeros((m, ncols + 1))
    for i, (row, _, rhs) in enumerate(s.body):
        scale = 1
        T[i, list(row)] = [a / scale for a in row.values()]
        if s.slack_col[i] >= 0:
            T[i, s.slack_col[i]] = float(s.slack_sign[i])
        if s.art_col[i] >= 0:
            T[i, s.art_col[i]] = 1.0
        T[i, ncols] = rhs / scale
    bas = list(s.id_col)
    limit = 80 * m + 800

    def run(costvec, blocked) -> bool:
        for _ in range(limit):
            body = T[:, :ncols]
            red = costvec[:ncols] - costvec[bas] @ body
            if blocked is not None:
                red[blocked] = -1.0
            gamma = 1.0 + np.einsum("ij,ij->j", body, body)
            score = np.where(red > tol, red * red / gamma, -1.0)
            pcol = int(np.argmax(score))
            if score[pcol] < 0:
                return True
            col = T[:, pcol]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(col > tol, T[:, ncols] / col, np.inf)
            prow = int(np.argmin(ratios))
            if not np.isfinite(ratios[prow]):
                return False
            T[prow] /= T[prow, pcol]
            lift = T[:, pcol].copy()
            lift[prow] = 0.0
            np.subtract(T, np.outer(lift, T[prow]), out=T)
            bas[prow] = pcol
        return False

    art_idx = np.array(s.art_cols, dtype=int) if s.art_cols else None
    if s.art_cols:
        cost1 = np.zeros(ncols)
        cost1[art_idx] = -1.0
        if not run(cost1, None):
            return None
        if cost1[bas] @ T[:, ncols] < -1e-7:
            return None
    cost2 = np.zeros(ncols)
    cost2[:s.lp.num_vars] = [c / 1 for c in s.cost]
    if not run(cost2, art_idx):
        return None
    return bas


def previous_collapsed_program(g):
    """The closure- and symmetry-collapsed subset-entropy LP of g and the
    variable of h(V), or None when the closure of the empty set is V."""
    full = g.vertex_mask
    cl = closure_map(g)
    pinned = cl[0]
    closed = sorted({c for c in cl})
    if full == pinned:
        return None

    # Vertex symmetries identify variables: averaging any feasible h over the
    # automorphism group keeps it feasible (the constraint families are
    # permutation-closed) without moving the objective, so one variable per
    # orbit of closed sets (automorphisms commute with closure) loses nothing.
    # The expanded optimum is still re-validated against every row below.
    rep = orbit_representatives(automorphisms(g), closed)
    var_of = {}
    for c in closed:
        if rep[c] == c and c != pinned:
            var_of[c] = len(var_of)

    rows = []
    row_index: set[tuple] = set()

    def add(coeffs, rel, rhs: int) -> None:
        # Closure can map distinct subsets to the same variable, so merge by
        # variable.  h(empty) and every functional equality vanish here:
        # cl(empty) is pinned to zero and cl(N(v)+v) = cl(N(v)).
        items: dict[int, int] = {}
        for mask, c in coeffs.items():
            r = rep[cl[mask]]
            if r == pinned:
                continue
            j = var_of[r]
            items[j] = items.get(j, 0) + c
        items = {j: c for j, c in items.items() if c}
        if not items:
            return
        if rel != LE:
            raise AssertionError(f"closure left an equality row standing: {coeffs}")
        key = (tuple(sorted(items.items())), rhs)
        if key not in row_index:
            row_index.add(key)
            rows.append((items, LE, rhs))

    for row in previous_shannon_rows(g):
        add(*row)

    return LinearProgram(len(var_of), "max", {var_of[full]: 1}, rows), var_of[full]


def previous_shannon_rows(g):
    """Every row of the subset-entropy LP, as (coeffs, relation, rhs) with
    coeffs keyed by vertex mask, generated afresh per graph.

    In order: h(empty) = 0, h(v) <= 1, monotonicity at the top, the
    elemental submodular inequalities I(i; j | K) >= 0, and one functional
    equality per loopless vertex tying h(N(v)+v) to h(N(v)).
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


def previous_validate_entropy_function(g, h) -> tuple[bool, str]:
    """Check h, indexed by mask, against every row of previous_shannon_rows
    in row order, each row summed as a dict over h and its right-hand side
    scaled by the least common denominator of h."""
    if len(h) != g.vertex_mask + 1:
        return False, "h must have one value per vertex subset"
    scale = lcm(*(x.denominator for x in h))
    k = [x.numerator * (scale // x.denominator) for x in h]
    for coeffs, rel, rhs in previous_shannon_rows(g):
        value = sum(c * k[m] for m, c in coeffs.items())
        if value != rhs * scale if rel == EQ else value > rhs * scale:
            terms = " ".join(f"{c:+d}*h({m:b})" for m, c in coeffs.items())
            return False, f"row {terms} {rel} {rhs} fails"
    return True, "ok"
