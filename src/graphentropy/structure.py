"""Saturating matchings and entropy-preserving decompositions.

The structural engine behind the small-entropy classification: a bipartite
side-shrinking argument that always produces a left subset whose whole
neighbourhood can be matched, a search for vertex sets S that such matchings
render removable (the entropy of the graph then splits as |S| plus the
entropy of a smaller graph), and the certification report for graphs none of
this machinery can shrink.  The search backs the reduce and minimal-check
commands, not the entropy brackets: entropy_bracket's bounds already obey
the split (see enumeration.bracket_with_fallback).
Bipartite sides are plain vertex masks (g, left, right) of an undirected
host; matchings are sorted (left, right) pairs of host vertices.
"""

from __future__ import annotations

from itertools import combinations

from .bounds import max_matching
from .graphs import (
    CapExceededError,
    Graph,
    GraphError,
    bits_of,
    co_neighborhood_set,
    induced_subgraph,
    mask_of,
)

DEFAULT_REDUCTION_CAP = 16
Pairs = tuple[tuple[int, int], ...]


def _check_sides(g: Graph, left: int, right: int) -> None:
    """Refuse a directed host and sides that overlap or leave it."""
    if g.directed:
        raise GraphError("bipartite sides need an undirected host")
    if (left | right) & ~g.vertex_mask:
        raise GraphError("side masks reference vertices outside the host")
    if left & right:
        raise GraphError("left and right sides overlap")


def bipartite_max_matching(g: Graph, left: int, right: int) -> Pairs:
    """Maximum matching of the edges from left to right, as sorted pairs.

    Augmenting-path search, deterministic: left vertices in increasing order,
    right neighbours likewise.
    """
    _check_sides(g, left, right)
    owner: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in bits_of(g.rows[u] & right):
            if v in seen:
                continue
            seen.add(v)
            if v not in owner or augment(owner[v], seen):
                owner[v] = u
                return True
        return False

    for u in bits_of(left):
        augment(u, set())
    return tuple(sorted((u, v) for v, u in owner.items()))


def _matched(host: Graph, matching, left: int, right: int) -> int:
    """Right-side vertices a matching covers; raises GraphError unless its
    pairs are disjoint host edges from a left vertex to a right vertex."""
    seen_l = seen_r = 0
    for u, v in matching:
        bit_u, bit_v = 1 << u, 1 << v
        if not left & bit_u or not right & bit_v:
            raise GraphError(f"matching pair {u}-{v} leaves its sides")
        if not host.has_arc(u, v):
            raise GraphError(f"matching pair {u}-{v} is not an edge")
        if seen_l & bit_u or seen_r & bit_v:
            raise GraphError("matching pairs must be disjoint")
        seen_l |= bit_u
        seen_r |= bit_v
    return seen_r


def _witness(g: Graph, left: int, right: int, a_prime: int, matching) -> tuple[int, Pairs]:
    """(a_prime, sorted matching) once a_prime is a nonempty part of left and
    the matching covers exactly its right neighbourhood, which may be empty."""
    if not a_prime or a_prime & ~left:
        raise GraphError("witness set must be a nonempty part of the left side")
    saturated = 0
    for u in bits_of(a_prime):
        saturated |= g.rows[u] & right
    if _matched(g, matching, a_prime, saturated) != saturated:
        raise GraphError("matching does not cover the neighbourhood")
    return a_prime, tuple(sorted(matching))


def find_saturating_subset(g: Graph, left: int, right: int) -> tuple[int, Pairs]:
    """Find a nonempty left subset A' with a matching saturating N(A').

    Returns (a_prime, matching), the matching covering exactly the right
    neighbours of a_prime.  Requires |left| >= |right| >= 1 and at least one
    edge between the sides; under those hypotheses a witness always exists.
    The search follows the inductive argument: a left vertex without edges
    is a degenerate witness; a maximum matching covering the whole right
    side turns its left endpoints into a witness; otherwise the
    alternating-reachability split of the matching yields smaller sides, on
    strictly fewer right vertices, that still satisfy the hypotheses and
    contain every neighbour of their left side.
    """
    _check_sides(g, left, right)
    if not (left.bit_count() >= right.bit_count() >= 1):
        raise GraphError("sides must have |left| >= |right| >= 1")
    if not any(g.rows[u] & right for u in bits_of(left)):
        raise GraphError("sides must have at least one edge between them")
    return _saturating_search(g, left, right)


def _saturating_search(g: Graph, left: int, right: int) -> tuple[int, Pairs]:
    for a in bits_of(left):
        if not g.rows[a] & right:
            return _witness(g, left, right, 1 << a, ())
    matching = bipartite_max_matching(g, left, right)
    if len(matching) == right.bit_count():
        return _witness(g, left, right, mask_of(a for a, _ in matching), matching)
    # Alternating reachability from the unmatched right vertices: the
    # unreachable left part keeps all its neighbours among the unreachable
    # right part, and outnumbers them, so the hypotheses survive the descent.
    right_of = dict(matching)
    reach_b = right & ~mask_of(v for _, v in matching)
    reach_a = 0
    frontier = reach_b
    while frontier:
        new_a = 0
        for v in bits_of(frontier):
            new_a |= g.rows[v] & left
        new_a &= ~reach_a
        reach_a |= new_a
        frontier = 0
        for a in bits_of(new_a):
            v = right_of.get(a)
            if v is not None and not reach_b >> v & 1:
                reach_b |= 1 << v
                frontier |= 1 << v
    keep_a = left & ~reach_a
    assert keep_a, "deficiency split emptied the left side"
    a_prime, sub = _saturating_search(g, keep_a, right & ~reach_b)
    # Witness sets name host vertices, so it transfers to the outer sides
    # verbatim; rechecking it against them confirms no neighbour escaped.
    return _witness(g, left, right, a_prime, sub)


class Decomposition:
    """A vertex set S whose co-neighbourhood matches onto it, splitting the graph.

    c(S) collects the vertices outside S with every neighbour inside S; the
    matching pairs distinct c(S) vertices onto all of S.  d(S) = S together
    with c(S), and the remainder is the graph induced on everything else,
    relabelled densely (verts maps its labels back).  Everything is
    recomputed and revalidated here, nothing is trusted from the search.
    """

    __slots__ = ("host", "s", "c_s", "d_s", "matching", "remainder", "verts")

    def __init__(self, host: Graph, s: int, matching: Pairs):
        if not host.is_simple():
            raise GraphError("decompositions are defined over loopless undirected graphs")
        if not s or s & ~host.vertex_mask:
            raise GraphError("S must be a nonempty vertex subset")
        c_s = co_neighborhood_set(host, s)
        for u in bits_of(c_s):
            if host.rows[u] & c_s:
                raise AssertionError("co-neighbourhood set is not independent")
        if _matched(host, matching, c_s, s) != s:
            raise GraphError("matching must saturate S")
        self.host = host
        self.s = s
        self.c_s = c_s
        self.d_s = s | c_s
        self.matching = tuple(sorted(matching))
        self.remainder, self.verts = induced_subgraph(host, host.vertex_mask & ~self.d_s)

    def __repr__(self) -> str:
        return (
            f"Decomposition(s={list(bits_of(self.s))}, "
            f"c={list(bits_of(self.c_s))}, matching={list(self.matching)})"
        )


def _check_searchable(g: Graph, cap: int) -> None:
    if not g.is_simple():
        raise GraphError("reducible-set search needs a loopless undirected graph")
    if g.n > cap:
        raise CapExceededError(f"vertex count {g.n} exceeds the reduction cap {cap}",
                               flag="--cap")


def find_reducible_set(g: Graph, cap: int = DEFAULT_REDUCTION_CAP) -> Decomposition | None:
    """Search for a nonempty S whose c(S) carries an S-saturating matching.

    Subsets are tried by increasing size, lexicographically within a size, and
    the first hit wins, so results are reproducible.  Returns None when no
    subset works, which is the reducibility test the minimality certificate
    needs.
    """
    _check_searchable(g, cap)
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            s = mask_of(combo)
            c_s = co_neighborhood_set(g, s)
            if c_s.bit_count() < size:
                continue
            matching = bipartite_max_matching(g, c_s, s)
            if len(matching) == size:
                return Decomposition(g, s, matching)
    return None


def certify_entropy_minimal_candidate(g: Graph, cap: int = DEFAULT_REDUCTION_CAP) -> dict:
    """Run the necessary conditions for entropy minimality and report them.

    A candidate has no reducible set.  The report also compares |c(M)| with
    |M| for the vertex set M of a maximum matching: a candidate must come out
    strictly below, except through isolated vertices, which cannot take part
    in any matching and are listed separately.  When c(M) does not come out
    below and has edges into M, the saturating-subset argument pinpoints a
    reducible S, so that situation only arises alongside a reducible set
    anyway; its witness is reported as saturating_witness.  The matching
    comes before the search, so its fixed cap refuses before any subset.
    """
    _check_searchable(g, cap)
    matched = mask_of(v for edge in max_matching(g)[1] for v in edge)
    reducible = find_reducible_set(g, cap)
    isolated = mask_of(v for v, r in enumerate(g.mutual) if not r)
    out = {
        "candidate": reducible is None,
        "reducible": None if reducible is None else {
            "s": list(bits_of(reducible.s)),
            "matching": [list(p) for p in reducible.matching],
        },
        "matched_vertices": list(bits_of(matched)),
        "isolated_vertices": list(bits_of(isolated)),
    }
    if matched:
        c_of_m = co_neighborhood_set(g, matched)
        rel = "<" if c_of_m.bit_count() < matched.bit_count() else ">="
        out["c_of_matched"] = list(bits_of(c_of_m))
        out["comparison"] = f"|c(M)| = {c_of_m.bit_count()} {rel} |M| = {matched.bit_count()}"
        if rel == ">=" and any(g.rows[u] & matched for u in bits_of(c_of_m)):
            a_prime, matching = find_saturating_subset(g, c_of_m, matched)
            out["saturating_witness"] = {
                "a_prime": list(bits_of(a_prime)),
                "matching": [list(p) for p in matching],
            }
    return out
