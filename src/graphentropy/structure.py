"""Saturating matchings and entropy-preserving decompositions.

The structural engine behind the small-entropy classification: a bipartite
side-shrinking argument that always produces a left subset whose whole
neighbourhood can be matched, a search for vertex sets S that such matchings
render removable (the entropy of the graph then splits as |S| plus the
entropy of a smaller graph), and the certification report for graphs none of
this machinery can shrink.  The search backs the reduce and minimal-check
commands, not the entropy brackets: bounds_report's bounds already obey the
split (see enumeration.bracket_with_fallback).
"""

from __future__ import annotations

from itertools import combinations

from .bounds import max_matching
from .graphs import (
    BipartiteView,
    CapExceededError,
    Graph,
    GraphError,
    bits_of,
    co_neighborhood_set,
    induced_subgraph,
    mask_of,
)

DEFAULT_REDUCTION_CAP = 16


def bipartite_max_matching(b: BipartiteView) -> tuple[tuple[int, int], ...]:
    """Maximum matching of a bipartite view, as sorted (left, right) pairs.

    Augmenting-path search, deterministic: left vertices in increasing order,
    right neighbours likewise.
    """
    owner: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in bits_of(b.adj_left(u)):
            if v in seen:
                continue
            seen.add(v)
            if v not in owner or augment(owner[v], seen):
                owner[v] = u
                return True
        return False

    for u in bits_of(b.left):
        augment(u, set())
    return tuple(sorted((u, v) for v, u in owner.items()))


class SaturatingWitness:
    """A nonempty left subset whose full neighbourhood is matched back into it.

    Revalidates on construction: matching edges live in the view restricted
    to (a_prime, N(a_prime)), are pairwise disjoint, and cover N(a_prime)
    exactly.  N(a_prime) may be empty, in which case the matching is too;
    that degenerate witness is what left vertices without edges produce.
    """

    __slots__ = ("a_prime", "matching", "saturated")

    def __init__(self, view: BipartiteView, a_prime: int, matching: tuple[tuple[int, int], ...]):
        if not a_prime or a_prime & ~view.left:
            raise GraphError("witness set must be a nonempty part of the left side")
        saturated = view.neighborhood_left(a_prime)
        seen_a = 0
        seen_b = 0
        for a, b in matching:
            bit_a, bit_b = 1 << a, 1 << b
            if not a_prime & bit_a or not saturated & bit_b:
                raise GraphError(f"matching edge {a}-{b} leaves the witness view")
            if not view.adj_left(a) >> b & 1:
                raise GraphError(f"matching pair {a}-{b} is not an edge")
            if seen_a & bit_a or seen_b & bit_b:
                raise GraphError("matching edges must be disjoint")
            seen_a |= bit_a
            seen_b |= bit_b
        if seen_b != saturated:
            raise GraphError("matching does not cover the neighbourhood")
        self.a_prime = a_prime
        self.matching = tuple(sorted(matching))
        self.saturated = saturated

    def __repr__(self) -> str:
        return (
            f"SaturatingWitness(a_prime={sorted(bits_of(self.a_prime))}, "
            f"matching={list(self.matching)})"
        )


def find_saturating_subset(b: BipartiteView) -> SaturatingWitness:
    """Find a nonempty left subset A' with a matching saturating N(A').

    Requires |left| >= |right| >= 1 and at least one edge; under those
    hypotheses a witness always exists.  The search mirrors the inductive
    argument: a left vertex without edges is a degenerate witness; a maximum
    matching covering the whole right side turns its left endpoints into a
    witness; otherwise the alternating-reachability split of the matching
    yields a smaller view, on strictly fewer right vertices, that still
    satisfies the hypotheses and contains every neighbour of its left side.
    """
    n_left = b.left.bit_count()
    n_right = b.right.bit_count()
    if not (n_left >= n_right >= 1):
        raise GraphError("view must have |left| >= |right| >= 1")
    if b.edge_count() == 0:
        raise GraphError("view must have at least one edge")
    return _saturating_search(b)


def _saturating_search(b: BipartiteView) -> SaturatingWitness:
    for a in bits_of(b.left):
        if not b.adj_left(a):
            return SaturatingWitness(b, 1 << a, ())
    matching = bipartite_max_matching(b)
    if len(matching) == b.right.bit_count():
        a_prime = mask_of(a for a, _ in matching)
        return SaturatingWitness(b, a_prime, matching)
    # Alternating reachability from the unmatched right vertices: the
    # unreachable left part keeps all its neighbours among the unreachable
    # right part, and outnumbers them, so the hypotheses survive the descent.
    right_of = {a: v for a, v in matching}
    left_of = {v: a for a, v in matching}
    reach_b = b.right & ~mask_of(left_of)
    reach_a = 0
    frontier = reach_b
    while frontier:
        new_a = 0
        for v in bits_of(frontier):
            new_a |= b.adj_right(v)
        new_a &= ~reach_a
        reach_a |= new_a
        frontier = 0
        for a in bits_of(new_a):
            v = right_of.get(a)
            if v is not None and not reach_b >> v & 1:
                reach_b |= 1 << v
                frontier |= 1 << v
    keep_a = b.left & ~reach_a
    assert keep_a, "deficiency split emptied the left side"
    inner = b.restrict(keep_a, b.right & ~reach_b)
    sub = _saturating_search(inner)
    # Witness sets name host vertices, so it transfers to the outer view
    # verbatim; rebuilding against b re-checks that no neighbour escaped.
    return SaturatingWitness(b, sub.a_prime, sub.matching)


class Decomposition:
    """A vertex set S whose co-neighbourhood matches onto it, splitting the graph.

    c(S) collects the vertices outside S with every neighbour inside S; the
    matching pairs distinct c(S) vertices onto all of S.  d(S) = S together
    with c(S), and the remainder is the graph induced on everything else,
    relabelled densely (verts maps its labels back).  Everything is
    recomputed and revalidated here, nothing is trusted from the search.
    """

    __slots__ = ("host", "s", "c_s", "d_s", "matching", "remainder", "verts")

    def __init__(self, host: Graph, s: int, matching: tuple[tuple[int, int], ...]):
        if not host.is_simple():
            raise GraphError("decompositions are defined over loopless undirected graphs")
        if not s or s & ~host.vertex_mask:
            raise GraphError("S must be a nonempty vertex subset")
        c_s = co_neighborhood_set(host, s)
        for u in bits_of(c_s):
            if host.rows[u] & c_s:
                raise AssertionError("co-neighbourhood set is not independent")
        seen_c = 0
        seen_s = 0
        for c, t in matching:
            bit_c, bit_t = 1 << c, 1 << t
            if not c_s & bit_c or not s & bit_t:
                raise GraphError(f"matching pair {c}-{t} does not join c(S) to S")
            if not host.has_arc(c, t):
                raise GraphError(f"matching pair {c}-{t} is not an edge")
            if seen_c & bit_c or seen_s & bit_t:
                raise GraphError("matching pairs must be disjoint")
            seen_c |= bit_c
            seen_s |= bit_t
        if seen_s != s:
            raise GraphError("matching must saturate S")
        self.host = host
        self.s = s
        self.c_s = c_s
        self.d_s = s | c_s
        self.matching = tuple(sorted(matching))
        self.remainder, self.verts = induced_subgraph(host, host.vertex_mask & ~self.d_s)

    def size(self) -> int:
        return self.s.bit_count()

    def __repr__(self) -> str:
        return (
            f"Decomposition(s={sorted(bits_of(self.s))}, "
            f"c={sorted(bits_of(self.c_s))}, matching={list(self.matching)})"
        )


def find_reducible_set(g: Graph, cap: int = DEFAULT_REDUCTION_CAP) -> Decomposition | None:
    """Search for a nonempty S whose c(S) carries an S-saturating matching.

    Subsets are tried by increasing size, lexicographically within a size, and
    the first hit wins, so results are reproducible.  Returns None when no
    subset works, which is the reducibility test the minimality certificate
    needs.
    """
    if not g.is_simple():
        raise GraphError("reducible-set search needs a loopless undirected graph")
    if g.n > cap:
        raise CapExceededError(f"vertex count {g.n} exceeds the reduction cap {cap}")
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            s = mask_of(combo)
            c_s = co_neighborhood_set(g, s)
            if c_s.bit_count() < size:
                continue
            view = BipartiteView(g, c_s, s)
            matching = bipartite_max_matching(view)
            if len(matching) == size:
                return Decomposition(g, s, matching)
    return None


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
            out["saturating_witness"] = {
                "a_prime": sorted(bits_of(self.lemma_witness.a_prime)),
                "matching": [list(p) for p in self.lemma_witness.matching],
            }
        return out

    def __repr__(self) -> str:
        return f"MinimalityReport(candidate={self.candidate})"


def certify_entropy_minimal_candidate(g: Graph, cap: int = DEFAULT_REDUCTION_CAP) -> MinimalityReport:
    """Run the necessary conditions for entropy minimality and report them.

    A candidate has no reducible set.  The report also compares |c(M)| with
    |M| for the vertex set M of a maximum matching: a candidate must come out
    strictly below, except through isolated vertices, which cannot take part
    in any matching and are listed separately.
    """
    if g.n > cap:
        raise CapExceededError(f"vertex count {g.n} exceeds the reduction cap {cap}")
    reducible = find_reducible_set(g, cap)
    matching = max_matching(g)
    matched = matching.vertices
    isolated = mask_of(v for v in range(g.n) if not g.rows[v] & ~(1 << v))
    c_of_m = None
    comparison = None
    witness = None
    if matched:
        c_of_m = co_neighborhood_set(g, matched)
        rel = "<" if c_of_m.bit_count() < matched.bit_count() else ">="
        comparison = f"|c(M)| = {c_of_m.bit_count()} {rel} |M| = {matched.bit_count()}"
        if rel == ">=":
            view = BipartiteView(g, c_of_m, matched)
            if view.edge_count():
                witness = find_saturating_subset(view)
    return MinimalityReport(g, reducible, matched, c_of_m, comparison, isolated, witness)
