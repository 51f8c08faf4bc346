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

    __slots__ = ("n", "rows", "directed", "_cols", "_mutual", "_components")

    def __init__(self, n: int, rows: Iterable[int], directed: bool):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise CapExceededError(f"vertex count {n} exceeds the {MAX_VERTICES}-vertex cap")
        rows = tuple(map(int, rows))
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for u, r in enumerate(rows):
            if r & ~full:
                raise GraphError(f"row {u} references vertices outside 0..{n - 1}")
        cols = None
        if not directed:
            cols = _transpose(rows)
            if cols != rows:
                for u, r in enumerate(rows):
                    one_way = r & ~cols[u]
                    if one_way:
                        v = (one_way & -one_way).bit_length() - 1
                        raise GraphError(f"undirected graph has one-way arc {u}->{v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_mutual", None)
        object.__setattr__(self, "_components", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.rows, self.directed))

    # -- constructors ------------------------------------------------------

    @classmethod
    def undirected(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {u}-{v} out of range")
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

    @property
    def mutual(self) -> tuple[int, ...]:
        """mutual[u] = bitmask of v != u with arcs both ways: the 'edge'
        relation of a digraph, and the loopless rows of an undirected graph."""
        cached = self._mutual
        if cached is None:
            cached = tuple(r & c & ~(1 << u) for u, (r, c) in enumerate(zip(self.rows, self.cols)))
            object.__setattr__(self, "_mutual", cached)
        return cached

    def edges(self) -> list[tuple[int, int]]:
        """Mutual pairs u < v (for undirected graphs: the edge list, loops excluded)."""
        return [(u, v) for u, r in enumerate(self.mutual) for v in bits_of(r >> (u + 1) << (u + 1))]

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
    each other would each have to live inside s.  Asserted here, and
    structure.Decomposition checks it again before trusting the set.
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


def automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Strong generators of the automorphism group (Sims, "Computational
    methods in the study of permutation groups", 1970): for each vertex i, last
    to first, one fixing 0..i-1 and sending i to w, for each w > i outside i's
    orbit under those found before; orbit_representatives reads orbits off them.

    Those vertex orbits are kept in a union-find rooted at the least vertex:
    every generator so far fixes 0..i-1, so i is the least vertex of its own
    orbit, and w lies in it exactly when w's root is i."""
    n, rows = g.n, g.rows
    sig = [(rows[v].bit_count(), g.cols[v].bit_count(), rows[v] >> v & 1) for v in range(n)]
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    gens: list[tuple[int, ...]] = []
    for i in reversed(range(n)):
        for w in range(i + 1, n):
            p = sig[w] == sig[i] and find(w) != i and _automorphism_sending(g, sig, i, w)
            if p:
                gens.append(p)
                for v in range(i, n):
                    a, b = find(v), find(p[v])
                    if a < b:
                        root[b] = a
                    elif b < a:
                        root[a] = b
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
    """Least mask of each mask's orbit under the group gens generate; masks
    must be closed under gens.

    Each generator's images of the masks are tabulated first, in increasing
    order: the image of m is that of m & (m - 1), met just before whenever
    the masks are closed under removing the low bit (a range of masks is),
    plus the image of the low bit; any other mask is permuted bit by bit.
    Then each mask not yet reached, taken in increasing order, is the least
    of its orbit, which a graph search over the tables collects.  Only the
    given masks are touched, so a few masks of a large graph cost a few
    steps and never a 2^n table."""
    order = sorted(masks)
    tables = []
    for p in gens:
        img: dict[int, int] = {}
        for m in order:
            rest = m & (m - 1)
            q = img.get(rest)
            img[m] = permute_mask(p, m) if q is None else q | 1 << p[(m ^ rest).bit_length() - 1]
        tables.append(img)
    low: dict[int, int] = {}
    for m in order:
        if m in low:
            continue
        low[m] = m
        stack = [m]
        while stack:
            x = stack.pop()
            for img in tables:
                y = img[x]
                if y not in low:
                    low[y] = m
                    stack.append(y)
    return low


def connected_components(g: Graph) -> list[int]:
    """Masks of the weakly connected components, by smallest vertex: found
    once per graph and cached on it, like Graph.cols, and handed out as a
    fresh list on every call."""
    cached = g._components
    if cached is None:
        undirected = [r | c for r, c in zip(g.rows, g.cols)]
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
                while frontier:
                    low = frontier & -frontier
                    nxt |= undirected[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & ~comp
                comp |= frontier
            comps.append(comp)
            seen |= comp
        cached = tuple(comps)
        object.__setattr__(g, "_components", cached)
    return list(cached)


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
    payload = 0
    for d in data:
        payload = payload << 6 | d
    pad = 6 * len(data) - nbits
    if payload & ((1 << pad) - 1):
        raise FormatError("graph6 padding bits must be zero")
    return graph_from_bits(n, payload >> pad)


def _render_graph6(g: Graph) -> str:
    if g.directed or loops(g):
        raise FormatError("graph6 renders simple undirected graphs only")
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    nbits = n * (n - 1) // 2
    chunks = (nbits + 5) // 6
    payload = adjacency_bits(g) << (6 * chunks - nbits)
    return head + "".join(chr((payload >> 6 * k & 63) + 63) for k in reversed(range(chunks)))


def adjacency_bits(g: Graph) -> int:
    """The upper triangle of g's adjacency matrix as one int: pair (i, j),
    i < j, ordered by (j, i), most significant bit first.  This is the
    graph6 payload, and the string that enumeration.canonical_form
    minimises over the relabellings in refined-colour order."""
    bits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = bits << 1 | (g.rows[i] >> j & 1)
    return bits


def graph_from_bits(n: int, bits: int) -> Graph:
    """The simple graph on n vertices whose adjacency_bits are bits."""
    rows = [0] * n
    pos = n * (n - 1) // 2
    for j in range(1, n):
        # Column j is the next j bits, pair (0, j) most significant.
        pos -= j
        col = bits >> pos & ((1 << j) - 1)
        bit = 1 << j
        while col:
            low = col & -col
            i = j - low.bit_length()
            rows[i] |= bit
            rows[j] |= 1 << i
            col ^= low
    return Graph(n, rows, directed=False)
