"""Small graphs and digraphs over bitmask adjacency rows.

Vertices are 0..n-1 and every vertex set is an int bitmask, so subgraph
and neighbourhood computations are a handful of bit operations.  The cap
of 64 vertices keeps text formats and masks honest; everything downstream
(bounds, guessing codes, enumeration) works on far smaller graphs anyway.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


class GraphError(ValueError):
    """Malformed graph construction or operation on an unsupported kind."""


class FormatError(GraphError):
    """Unparseable or unrenderable graph text."""


class CapExceededError(GraphError):
    """Input exceeds a size cap; the message says what went over which cap.

    flag is the command-line option that raises the cap, or None for the
    fixed caps (the 64-vertex graph, the 24-vertex matching component).
    """

    def __init__(self, message: str, flag: str | None = None):
        super().__init__(message)
        self.flag = flag


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _transpose(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Column masks of a bitmask adjacency matrix: bit u of result[v] is bit v of rows[u]."""
    cols = [0] * len(rows)
    for u, r in enumerate(rows):
        bit = 1 << u
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= bit
            r ^= low
    return tuple(cols)


class Graph:
    """Immutable (di)graph: rows[u] is the bitmask of v with an arc u->v.

    Loops are allowed (bit u of rows[u]).  An undirected graph is stored as
    the symmetric arc relation, which is also how the bound machinery reads
    it: an undirected edge is a pair of opposite arcs.
    """

    __slots__ = ("n", "rows", "directed", "_cols")

    def __init__(self, n: int, rows: Iterable[int], directed: bool):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise CapExceededError(f"vertex count {n} exceeds the {MAX_VERTICES}-vertex cap")
        rows = tuple(int(r) for r in rows)
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for u, r in enumerate(rows):
            if r & ~full:
                raise GraphError(f"row {u} references vertices outside 0..{n - 1}")
        cols = None
        if not directed:
            cols = _transpose(rows)
            for u, r in enumerate(rows):
                one_way = r & ~cols[u]
                if one_way:
                    v = (one_way & -one_way).bit_length() - 1
                    raise GraphError(f"undirected graph has one-way arc {u}->{v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "_cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.rows, self.directed))

    # -- constructors ------------------------------------------------------

    @classmethod
    def undirected(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, directed=False)

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]] = ()) -> "Graph":
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc {u}->{v} out of range")
            rows[u] |= 1 << v
        return cls(n, rows, directed=True)

    @classmethod
    def empty(cls, n: int, directed: bool = False) -> "Graph":
        return cls(n, [0] * n, directed)

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.undirected(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << u) for u in range(n)], directed=False)

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.undirected(n, [(i, i + 1) for i in range(n - 1)])

    # -- basic views -------------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def cols(self) -> tuple[int, ...]:
        """cols[v] = bitmask of in-neighbours of v."""
        cached = self._cols
        if cached is None:
            cached = _transpose(self.rows)
            object.__setattr__(self, "_cols", cached)
        return cached

    def mutual_row(self, u: int) -> int:
        """Vertices v != u with arcs both ways; the 'edge' relation of a digraph."""
        return self.rows[u] & self.cols[u] & ~(1 << u)

    def edges(self) -> list[tuple[int, int]]:
        """Mutual pairs u < v (for undirected graphs: the edge list, loops excluded)."""
        out = []
        for u in range(self.n):
            for v in bits_of(self.mutual_row(u) >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.rows[u])]

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def is_simple(self) -> bool:
        return not self.directed and loops(self) == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
            and self.directed == other.directed
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows, self.directed))

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "graph"
        return f"Graph({kind} n={self.n} rows={self.rows})"


class BipartiteView:
    """A two-sided window into an undirected host graph.

    Only edges crossing between the (disjoint) left and right masks are part
    of the view; vertex labels stay those of the host, so nested views taken
    during recursive searches still talk about the original vertices.
    """

    __slots__ = ("host", "left", "right")

    def __init__(self, host: Graph, left: int, right: int):
        if host.directed:
            raise GraphError("bipartite views require an undirected host")
        full = host.vertex_mask
        if left & ~full or right & ~full:
            raise GraphError("side masks reference vertices outside the host")
        if left & right:
            raise GraphError("left and right sides overlap")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("BipartiteView is immutable")

    def adj_left(self, u: int) -> int:
        """Right-side neighbours of left vertex u."""
        return self.host.rows[u] & self.right

    def adj_right(self, v: int) -> int:
        return self.host.rows[v] & self.left

    def neighborhood_left(self, sub: int) -> int:
        """Union of right-side neighbourhoods of the left subset sub."""
        out = 0
        for u in bits_of(sub & self.left):
            out |= self.adj_left(u)
        return out

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in bits_of(self.left) for v in bits_of(self.adj_left(u))]

    def edge_count(self) -> int:
        return sum(self.adj_left(u).bit_count() for u in bits_of(self.left))

    def restrict(self, left: int, right: int) -> "BipartiteView":
        return BipartiteView(self.host, left & self.left, right & self.right)

    def __repr__(self) -> str:
        return f"BipartiteView(left={sorted(bits_of(self.left))}, right={sorted(bits_of(self.right))})"


# -- vertex-set operators ----------------------------------------------------


def loops(g: Graph) -> int:
    """Bitmask of vertices carrying a loop."""
    m = 0
    for u, r in enumerate(g.rows):
        if r >> u & 1:
            m |= 1 << u
    return m


def co_neighborhood_set(g: Graph, s: int) -> int:
    """Vertices outside s whose whole in-neighbourhood lies inside s.

    The result is always an independent set: two such vertices adjacent to
    each other would each have to live inside s.  Asserted, not retested by
    callers.
    """
    _check_subset(g, s)
    if s == 0:
        raise GraphError("co-neighbourhood of the empty set is not defined here")
    out = 0
    cols = g.cols
    for v in range(g.n):
        bit = 1 << v
        if not s & bit and cols[v] & ~s == 0:
            out |= bit
    for v in bits_of(out):
        assert g.rows[v] & out == 0, "co-neighbourhood set must be independent"
    return out


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on s, relabelled densely.

    Returns (subgraph, vertices) where vertices[i] is the host vertex the
    new vertex i came from (increasing order).
    """
    _check_subset(g, s)
    verts = tuple(bits_of(s))
    index = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        r = 0
        for w in bits_of(g.rows[v] & s):
            r |= 1 << index[w]
        rows.append(r)
    return Graph(len(verts), rows, g.directed), verts


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Place g2 after g1 on a common vertex set with no arcs in between."""
    shift = g1.n
    rows = list(g1.rows) + [r << shift for r in g2.rows]
    return Graph(g1.n + g2.n, rows, g1.directed or g2.directed)


def complement(g: Graph) -> Graph:
    """Complement on the same vertices; loops are dropped, never created."""
    full = g.vertex_mask
    rows = [~r & full & ~(1 << u) for u, r in enumerate(g.rows)]
    return Graph(g.n, rows, g.directed)


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
    _check_subset(g, i)
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


def automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Strong generators of the automorphism group (Sims, "Computational
    methods in the study of permutation groups", 1970): for each vertex i, last
    to first, one fixing 0..i-1 and sending i to w, for each w > i outside i's
    orbit under those found before; orbit_representatives reads orbits off them."""
    n, rows = g.n, g.rows
    sig = [(rows[v].bit_count(), g.cols[v].bit_count(), rows[v] >> v & 1) for v in range(n)]
    points = [1 << v for v in range(n)]
    gens: list[tuple[int, ...]] = []
    rep = orbit_representatives(gens, points)
    for i in reversed(range(n)):
        for w in range(i + 1, n):
            p = sig[w] == sig[i] and rep[points[w]] != points[i] and \
                _automorphism_sending(g, sig, i, w)
            if p:
                gens.append(p)
                rep = orbit_representatives(gens, points)
    for p in gens:  # a wrong one would merge orbits and shrink the entropy LP
        if permute_mask(p, g.vertex_mask) != g.vertex_mask or any(
                permute_mask(p, rows[u]) != rows[p[u]] for u in range(n)):
            raise AssertionError(f"not an automorphism: {p}")
    return tuple(gens)


def _automorphism_sending(g: Graph, sig: list, i: int, w: int) -> tuple[int, ...] | None:
    """An automorphism fixing 0..i-1 that sends i to w, by backtracking over
    the images of i, i+1, ... with equal degree signatures; None if none."""
    n, rows, cols = g.n, g.rows, g.cols
    img = list(range(n))

    def extend(v: int, placed: int) -> Iterator[tuple[int, ...]]:
        if v == n:  # placed is every vertex, so the loop below is empty
            yield tuple(img)
        low = (1 << v) - 1
        arcs_out, arcs_in = permute_mask(img, rows[v] & low), permute_mask(img, cols[v] & low)
        for x in (w,) if v == i else bits_of(g.vertex_mask & ~placed):
            if sig[x] == sig[v] and rows[x] & placed == arcs_out and cols[x] & placed == arcs_in:
                img[v] = x
                yield from extend(v + 1, placed | 1 << x)

    return next(extend(i, (1 << i) - 1), None)


def permute_mask(perm: Sequence[int], mask: int) -> int:
    """Image of a vertex mask under a permutation given as an image table."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def orbit_representatives(gens: Sequence[Sequence[int]], masks: Iterable[int]) -> dict[int, int]:
    """Least mask of each mask's orbit under the group gens generate, by
    union-find over the generator images; masks must be closed under gens."""
    low = {m: m for m in masks}

    def find(m: int) -> int:
        while low[m] != m:
            low[m] = m = low[low[m]]
        return m

    for p in gens:
        for m in low:
            a, b = sorted((find(m), find(permute_mask(p, m))))
            low[b] = a
    return {m: find(m) for m in low}


def connected_components(g: Graph) -> list[int]:
    """Masks of the weakly connected components, by smallest vertex."""
    undirected = [g.rows[u] | g.cols[u] for u in range(g.n)]
    seen = 0
    comps = []
    for v in range(g.n):
        bit = 1 << v
        if seen & bit:
            continue
        comp = bit
        frontier = bit
        while frontier:
            nxt = 0
            for u in bits_of(frontier):
                nxt |= undirected[u]
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def _check_subset(g: Graph, s: int) -> None:
    if s & ~g.vertex_mask:
        raise GraphError("vertex set reaches outside the graph")


# -- serialization -----------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    """Parse graph6, 'n; u-v,...' edge lists, or 'n; u->v,...' arc lists.

    Text formats use 1-based vertex names; graph6 is the usual 0-based
    packed format.  fmt='auto' sniffs: a ';' means an edge/arc list ('->'
    picks the arc form), anything else is treated as graph6.
    """
    text = text.strip()
    if fmt == "auto":
        if ";" in text:
            fmt = "arc-list" if "->" in text else "edge-list"
        else:
            fmt = "graph6"
    if fmt == "graph6":
        return _parse_graph6(text)
    if fmt == "edge-list":
        return _parse_pair_list(text, directed=False)
    if fmt == "arc-list":
        return _parse_pair_list(text, directed=True)
    raise FormatError(f"unknown graph format {fmt!r}")


def render_graph(g: Graph, fmt: str) -> str:
    if fmt == "graph6":
        return _render_graph6(g)
    if fmt == "arc-list":
        body = ",".join(f"{u + 1}->{v + 1}" for u, v in g.arcs())
        return f"{g.n}; {body}" if body else f"{g.n};"
    raise FormatError(f"unknown graph format {fmt!r}")


def _parse_pair_list(text: str, directed: bool) -> Graph:
    head, sep, body = text.partition(";")
    if not sep:
        raise FormatError("expected 'n; pairs' with a semicolon")
    try:
        n = int(head.strip())
    except ValueError:
        raise FormatError(f"bad vertex count {head.strip()!r}") from None
    if n < 0:
        raise FormatError("vertex count must be nonnegative")
    arrow = "->" if directed else "-"
    pairs = []
    for token in body.split(","):
        token = token.strip()
        if not token:
            continue
        u_text, sep2, v_text = token.partition(arrow)
        if not sep2:
            raise FormatError(f"bad pair {token!r}, expected u{arrow}v")
        try:
            u, v = int(u_text), int(v_text)
        except ValueError:
            raise FormatError(f"bad pair {token!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"pair {token!r} outside 1..{n}")
        pairs.append((u - 1, v - 1))
    if directed:
        return Graph.from_arcs(n, pairs)
    return Graph.undirected(n, pairs)


def _parse_graph6(text: str) -> Graph:
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise FormatError("empty graph6 payload")
    data = [ord(c) - 63 for c in text]
    if any(d < 0 or d > 63 for d in data):
        raise FormatError("graph6 byte out of range")
    if data[0] == 63:
        if len(data) < 4:
            raise FormatError("truncated graph6 size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    if n > MAX_VERTICES:
        raise CapExceededError(f"graph6 input has {n} vertices, cap is {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise FormatError("graph6 payload length does not match vertex count")
    bits = []
    for d in data:
        bits.extend((d >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise FormatError("graph6 padding bits must be zero")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, rows, directed=False)


def _render_graph6(g: Graph) -> str:
    if g.directed or loops(g):
        raise FormatError("graph6 renders simple undirected graphs only")
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(g.rows[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return head + "".join(chars)
