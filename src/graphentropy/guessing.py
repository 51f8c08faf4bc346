"""Exact guessing numbers via word-level compatibility.

Every vertex of a digraph guesses its own symbol from the symbols on its
in-neighbours.  A single profile of guessing functions fixes a set of words
exactly when those words are pairwise compatible: whenever two of them agree
on the whole in-neighbourhood of a vertex they also agree at that vertex.
So the largest simultaneously fixable word set is a maximum clique in the
compatibility relation over all q**n words, and the guessing number is its
base-q logarithm.  Everything here is exact: the clique search is a full
branch and bound, and codes revalidate themselves against the definition.

Shifting every word by a fixed vector, coordinatewise mod q, keeps all
coordinate equalities, so it is an automorphism of the compatibility graph
that can take any word to any other.  Some maximum clique therefore contains
the all-zero word, and the search proves optimality inside its
neighbourhood alone.  The code it reports is still the one a search over
all words would report: when that search's first clique is not optimal, it
is replayed with the known optimum as its incumbent.  No code is larger than
q**tau, tau the host's minimum feedback vertex set, so the search stops as
soon as it holds a clique of that size.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .bounds import transversal_number
from .graphs import (
    CapExceededError,
    Graph,
    GraphError,
    bits_of,
    co_neighborhood_set,
    induced_subgraph,
)

DEFAULT_WORD_CAP = 4096


def _all_words(n: int, q: int) -> list[tuple[int, ...]]:
    return [tuple(w) for w in itertools.product(range(q), repeat=n)]


class CompatibilityGraph:
    """Compatibility relation on all q**n words of a guessing game.

    Words are kept in lexicographic order; rows[i] is the bitmask of words
    compatible with word i (i itself excluded).  The graph can be far larger
    than the 64-vertex host cap, which is why it is its own type rather than
    a Graph.
    """

    __slots__ = ("host", "q", "words", "rows")

    def __init__(self, host: Graph, q: int, words: list[tuple[int, ...]], rows: list[int]):
        self.host = host
        self.q = q
        self.words = words
        self.rows = rows

    def __len__(self) -> int:
        return len(self.words)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def max_clique_mask(self) -> int:
        return _max_clique(self.rows, self.q ** transversal_number(self.host)[0])

    def __repr__(self) -> str:
        return f"CompatibilityGraph(q={self.q}, words={len(self.words)})"


def compatibility_graph(g: Graph, q: int, cap: int = DEFAULT_WORD_CAP) -> CompatibilityGraph:
    """Build the word-level compatibility graph of g over alphabet {0..q-1}.

    Two distinct words are adjacent unless some vertex separates them: they
    agree on its in-neighbourhood but differ at the vertex itself.  Built one
    vertex at a time by bucketing words on their in-neighbourhood restriction,
    so the cost is n * q**n mask operations rather than all-pairs work.
    """
    if q < 2:
        raise GraphError("alphabet needs at least two symbols")
    total = q**g.n
    if total > cap:
        raise CapExceededError(f"word space {q}**{g.n} = {total} exceeds the cap of {cap}",
                               flag="--cap")
    words = _all_words(g.n, q)
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
    rows = [full & ~(bad[i] | 1 << i) for i in range(total)]
    return CompatibilityGraph(g, q, words, rows)


def _max_clique(rows: list[int], limit: int | None = None) -> int:
    """Mask of a maximum clique, anchored on word 0 by the symbol shifts.

    Adding a fixed vector coordinatewise mod q keeps every coordinate's
    equalities, so it is an automorphism of the compatibility graph, and
    these shifts take any word to any other.  Hence omega = 1 + omega(N(0)),
    where word 0 is index 0: a search of rows[0] alone finds omega.

    The mask returned is the one the unanchored search over all words
    reports, its first clique of size omega, since it only ever replaces a
    clique by a strictly larger one.  Its first clique, found by one greedy
    dive, sets the anchored search's incumbent; if N(0) holds no larger
    clique, that first clique is the answer.  Otherwise the unanchored search
    is replayed with its incumbent preset to omega - 1 and stopped at its
    first omega-clique.  Each frame's colour order depends only on its
    candidate set, and the higher incumbent prunes only branches whose colour
    bound cannot reach omega, so the replay visits a subsequence of the
    unanchored search's nodes, in order, and reaches the same clique first.

    limit, when given, bounds omega from above: q**tau for a compatibility
    graph, tau its host's minimum feedback vertex set.  The search stops as
    soon as the first dive or the anchored search reaches it, so a code
    meeting the bound needs no proof of optimality by search.  The mask is
    unchanged, since the unanchored search never replaces a clique by one of
    the same size.
    """
    n = len(rows)
    if n == 0:
        return 0
    full = (1 << n) - 1
    first = next(_improvements(rows, full))
    if first.bit_count() == limit:
        return first
    anchored = 0
    for anchored in _improvements(rows, rows[0], first.bit_count() - 1):
        if anchored.bit_count() + 1 == limit:
            break
    if not anchored:
        return first
    return next(_improvements(rows, full, anchored.bit_count()))


def _improvements(rows: list[int], cand: int, best_size: int = 0) -> Iterator[int]:
    """Masks of ever larger cliques within cand, the last one maximum.

    Branch and bound with greedy colouring: candidates are coloured greedily
    (each colour class an independent set) and explored from the highest
    colour down, so the colour count bounds every remaining branch.  Only
    cliques larger than best_size are yielded.  Deterministic: the order at
    every choice point depends only on the candidate set.
    """

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
    stack = [[0, 0, cand, color_order(cand)]]
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
            yield clique | bit


class GuessingValue:
    """A guessing number held exactly as (q, code_size).

    The value itself is log_q(code_size); comparisons go through code_size so
    nothing is ever rounded.  Mixing alphabet sizes in a comparison is a bug,
    not a conversion, and raises.
    """

    __slots__ = ("q", "code_size")

    def __init__(self, q: int, code_size: int):
        if q < 2 or code_size < 1:
            raise GraphError("guessing value needs q >= 2 and a positive code size")
        self.q = q
        self.code_size = code_size

    def log_string(self) -> str:
        return f"log_{self.q}({self.code_size})"

    def exact_integer(self) -> int | None:
        """The value as an int when code_size is a perfect power of q."""
        k, rest = 0, self.code_size
        while rest % self.q == 0:
            rest //= self.q
            k += 1
        return k if rest == 1 else None

    def _check(self, other) -> "GuessingValue":
        if not isinstance(other, GuessingValue):
            raise TypeError("can only compare against another GuessingValue")
        if other.q != self.q:
            raise GraphError("guessing values over different alphabets are not comparable")
        return other

    def __eq__(self, other) -> bool:
        if not isinstance(other, GuessingValue):
            return NotImplemented
        return self.q == other.q and self.code_size == other.code_size

    def __lt__(self, other) -> bool:
        return self.code_size < self._check(other).code_size

    def __le__(self, other) -> bool:
        return self.code_size <= self._check(other).code_size

    def __hash__(self) -> int:
        return hash((self.q, self.code_size))

    def __repr__(self) -> str:
        return f"GuessingValue({self.log_string()})"


class GuessingCode:
    """A set of words some strategy profile fixes simultaneously.

    Words are distinct full-length tuples over {0..q-1}, stored sorted.
    validate() re-checks the defining condition straight off the host graph,
    independent of whatever search produced the code.
    """

    __slots__ = ("host", "q", "words")

    def __init__(self, host: Graph, q: int, words: Iterable[tuple[int, ...]]):
        self.host = host
        self.q = q
        ws = sorted(tuple(w) for w in words)
        for w in ws:
            if len(w) != host.n or any(not 0 <= d < q for d in w):
                raise GraphError(f"word {w} does not fit {host.n} vertices over {q} symbols")
        if any(ws[i] == ws[i + 1] for i in range(len(ws) - 1)):
            raise GraphError("code words must be distinct")
        self.words = tuple(ws)

    def __len__(self) -> int:
        return len(self.words)

    def value(self) -> GuessingValue:
        return GuessingValue(self.q, len(self.words))

    def validate(self) -> None:
        if not validate_code(self.host, self.q, self.words):
            raise GraphError("code violates the compatibility condition")

    def word_strings(self) -> list[str]:
        sep = "" if self.q <= 10 else ","
        return [sep.join(str(d) for d in w) for w in self.words]

    def __repr__(self) -> str:
        return f"GuessingCode(q={self.q}, size={len(self.words)})"


def validate_code(g: Graph, q: int, words: Sequence[tuple[int, ...]]) -> bool:
    """Whether one strategy profile fixes every word of the code on g.

    Direct definition, per vertex: the symbol at v must be a function of the
    word's symbols on the in-neighbourhood of v.  One dict per vertex maps
    each restriction seen so far to its symbol, so the work is
    O(len(words) * n * in-degree).  Equivalent to pairwise compatibility, and
    kept free of the bitmask bucketing in compatibility_graph so the two can
    cross-check.
    """
    for w in words:
        if len(w) != g.n or any(not 0 <= d < q for d in w):
            return False
    cols = g.cols
    for v in range(g.n):
        in_list = list(bits_of(cols[v]))
        symbol_of: dict[tuple[int, ...], int] = {}
        for w in words:
            if symbol_of.setdefault(tuple(w[u] for u in in_list), w[v]) != w[v]:
                return False
    return True


def max_guessing(g: Graph, q: int, cap: int = DEFAULT_WORD_CAP) -> tuple[GuessingValue, GuessingCode]:
    """Exact guessing number of g over q symbols, with an optimal code.

    Solves the maximum clique problem on the full compatibility graph, so the
    result is optimal, not a bound.  The returned code has revalidated itself
    against the definition.
    """
    comp = compatibility_graph(g, q, cap)
    mask = comp.max_clique_mask()
    code = GuessingCode(g, q, [comp.words[i] for i in bits_of(mask)])
    code.validate()
    return code.value(), code


def extend_code(code: GuessingCode, matching: Sequence[tuple[int, int]], g: Graph) -> GuessingCode:
    """Lift a code on g minus d(S) back to g along an S-saturating matching.

    matching lists (outer, inner) edges of g: the inner endpoints form S, the
    outer ones lie in c(S), the set of vertices outside S with every
    neighbour inside it.  d(S) = S together with c(S).  Each old word gains
    q**|S| extensions: every matched pair carries one shared free symbol,
    unmatched c(S) vertices sit at 0, all other vertices keep their old
    value.  The result is validated before it is returned.
    """
    if not g.is_simple():
        raise GraphError("code extension needs a loopless undirected host")
    if not matching:
        raise GraphError("matching must be nonempty")
    outer = [c for c, _ in matching]
    inner = [s for _, s in matching]
    if len(set(outer)) != len(outer) or len(set(inner)) != len(inner):
        raise GraphError("matching endpoints must be distinct")
    s_mask = 0
    for s in inner:
        s_mask |= 1 << s
    c_mask = co_neighborhood_set(g, s_mask)
    for c, s in matching:
        if not c_mask >> c & 1:
            raise GraphError(f"vertex {c} keeps neighbours outside the inner set")
        if not g.has_arc(c, s):
            raise GraphError(f"matching pair {c}-{s} is not an edge")
    d_mask = s_mask | c_mask
    remainder, verts = induced_subgraph(g, g.vertex_mask & ~d_mask)
    if code.host != remainder:
        raise GraphError("code host does not match the graph minus d(S)")
    q = code.q
    pairs = sorted(matching, key=lambda cs: cs[1])
    blank_outer = [c for c in bits_of(c_mask) if not any(c == oc for oc, _ in pairs)]
    new_words = []
    for w in code.words:
        base = [0] * g.n
        for i, v in enumerate(verts):
            base[v] = w[i]
        for symbols in itertools.product(range(q), repeat=len(pairs)):
            word = list(base)
            for (c, s), sym in zip(pairs, symbols):
                word[c] = sym
                word[s] = sym
            for c in blank_outer:
                word[c] = 0
            new_words.append(tuple(word))
    out = GuessingCode(g, q, new_words)
    if len(out) != len(code) * q ** len(pairs):
        raise GraphError("extension lost words, the input code was malformed")
    out.validate()
    return out
