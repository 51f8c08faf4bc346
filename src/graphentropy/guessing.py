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
neighbourhood alone.  No code is larger than q**tau, tau the host's minimum
feedback vertex set.  The search runs in this order: one greedy dive over
all words, which ends it if it meets q**tau; a probe for q**tau - 1 words
next to the all-zero word, which settles whether the bound is met; and, only
if the probe fails, a climb inside that neighbourhood from the dive's size.
The code it reports is still the one a search over all words would report:
when the dive is not optimal, that search is replayed with the known optimum
as its incumbent.  The same shifts build the graph itself: only the
all-zero word's row comes from the definition, and every other row is an
earlier one shifted by one symbol at one coordinate.

The search colours its candidates greedily into independent classes, each
kept as one bitmask and built from the highest word down, so a coloured
word costs a shift, an XOR and an AND.  The symbol reversal d -> q - 1 - d at
every coordinate also keeps every coordinate equality; it sends word i to
q**n - 1 - i.  The search runs in that mirror, so every choice it makes,
and every code it reports, is that of the plainer search that colours from
the lowest word up.

The anchored search needs only the clique number, so it also prunes by the
symmetries that fix the all-zero word (orbital branching): the host's
automorphisms acting on coordinates, and, for q >= 3, transpositions of two
nonzero symbols at one coordinate.  Once the search has explored a word, it
drops that word's whole orbit under the symmetries that fix the current
clique, since those map every clique through one word of the orbit onto a
clique of the same size through the explored one.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .bounds import transversal_number
from .graphs import CapExceededError, Graph, GraphError, automorphisms, bits_of
from .structure import Decomposition

DEFAULT_WORD_CAP = 4096


class CompatibilityGraph:
    """Compatibility relation on all q**n words of a guessing game.

    Words are indexed in lexicographic order, so digit u of word i is
    i // q**(n-1-u) % q; rows[i] is the bitmask of words compatible with
    word i (i itself excluded).  The graph can be far larger than the
    64-vertex host cap, which is why it is its own type rather than a Graph.
    """

    __slots__ = ("host", "q", "rows")

    def __init__(self, host: Graph, q: int, rows: list[int]):
        self.host = host
        self.q = q
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def max_clique_mask(self) -> int:
        return _max_clique(self.rows, self.q ** transversal_number(self.host)[0],
                           _word_symmetries(self.host, self.q))

    def __repr__(self) -> str:
        return f"CompatibilityGraph(q={self.q}, words={len(self.rows)})"


def compatibility_graph(g: Graph, q: int, cap: int = DEFAULT_WORD_CAP) -> CompatibilityGraph:
    """Build the word-level compatibility graph of g over alphabet {0..q-1}.

    Two distinct words are adjacent unless some vertex separates them: they
    agree on its in-neighbourhood but differ at the vertex itself.  Only row
    0 comes from that definition.  With Z_u the mask of words whose digit u
    is 0, the words that some vertex v separates from word 0 are those in
    every Z_u, u an in-neighbour of v, but outside Z_v; a loop at v cancels
    its own term.  Every other row is an earlier one moved by a symbol
    shift: adding 1 mod q at digit u is an automorphism, so row i is the row
    of i minus that digit's stride, u the first nonzero digit of i, with
    each word index moved the same way.  That is a few mask operations per vertex
    for row 0 and a handful per further row.
    """
    if q < 2:
        raise GraphError("alphabet needs at least two symbols")
    total = q**g.n
    if total > cap:
        raise CapExceededError(f"word space {q}**{g.n} = {total} exceeds the cap of {cap}",
                               flag="--cap")
    full = (1 << total) - 1
    # Digit u of word index i is i // q**(n-1-u) % q, so Z_u repeats a run
    # of q**(n-1-u) ones every q**(n-u) bits.
    strides = [q ** (g.n - 1 - u) for u in range(g.n)]
    zero = [((1 << s) - 1) * (full // ((1 << q * s) - 1)) for s in strides]
    bad = 0
    cols = g.cols
    for v in range(g.n):
        agree = full
        for u in bits_of(cols[v]):
            agree &= zero[u]
        bad |= agree & ~zero[v]
    rows = [full & ~(bad | 1)]
    # Rows 0..s-1 are the words whose digits up to u are 0, s the stride of
    # digit u; each further block of s rows has digit u one higher.
    for s, z in zip(reversed(strides), reversed(zero)):
        back = (q - 1) * s
        top = z << back
        low = full ^ top
        for _ in range(q - 1):
            rows += [(x & low) << s | (x & top) >> back for x in rows[-s:]]
    return CompatibilityGraph(g, q, rows)


def _word_symmetries(g: Graph, q: int) -> Iterator[list[int]]:
    """Generators of a group of compatibility-graph automorphisms fixing word 0.

    Compatibility depends only on g's arcs and on equality at each
    coordinate, so two kinds of word permutation keep it, and both fix the
    all-zero word: a host automorphism p moving digit u to coordinate p[u],
    and, for q >= 3, a transposition (a b) of two nonzero symbols at one
    coordinate.  Each is an image table over word indices, built in O(q**n)
    by the stride recurrence compatibility_graph uses for its rows.  A
    generator, so nothing is built until the anchored search asks.
    """
    strides = [q ** (g.n - 1 - u) for u in range(g.n)]
    same = list(range(q))
    for p in automorphisms(g):
        yield _word_permutation(strides, [strides[p[u]] for u in range(g.n)], [same] * g.n)
    for c in range(g.n):
        for a in range(1, q):
            for b in range(a + 1, q):
                swap = list(same)
                swap[a], swap[b] = b, a
                yield _word_permutation(strides, strides, [swap if u == c else same
                                                           for u in range(g.n)])


def _word_permutation(strides: list[int], to: list[int], symbols: list[list[int]]) -> list[int]:
    """Image table of word index i -> sum over u of symbols[u][d_u(i)] * to[u],
    d_u(i) digit u of i; symbols[u][0] must be 0."""
    perm = [0]
    # Before step u, perm covers the strides[u] words whose digits up to u
    # are 0; each further block of that many words has digit u one higher.
    for u in reversed(range(len(strides))):
        t, sym = to[u], symbols[u]
        perm += [x + sym[d] * t for d in range(1, len(sym)) for x in perm]
    return perm


def _max_clique(rows: list[int], limit: int | None = None,
                gens: Iterable[Sequence[int]] = ()) -> int:
    """Mask of a maximum clique, anchored on word 0 by the symbol shifts.

    Adding a fixed vector coordinatewise mod q keeps every coordinate's
    equalities, so it is an automorphism of the compatibility graph, and
    these shifts take any word to any other.  Hence omega = 1 + omega(N(0)),
    where word 0 is index 0: a search of rows[0] alone finds omega.  The
    symbol reversal d -> q - 1 - d at every coordinate keeps those
    equalities too, and it sends word i to N - 1 - i, N = len(rows).
    _improvements searches in its mirror, so rows must be invariant under
    it.  Rows invariant under the shifts are: adjacency of w and w' depends
    only on w' - w, the reversal maps that difference to its negative, and
    the set of differences of adjacent words is closed under negation.

    The anchored search needs omega alone, not a particular clique, so it
    also prunes by gens, generators of a group of automorphisms that fix
    word 0, such as _word_symmetries builds; gens is read only if the
    anchored search runs.  The rule is orbital branching (Ostrowski,
    Linderoth, Rossi and Smriglio, Math. Program. 2011): each search frame,
    with clique K, keeps the generators that fix K pointwise, and once it
    has explored its branch on v it drops v's whole orbit under them from
    its candidates.  Sound: let s fix K and send v to w.  s fixes word 0,
    so s**-1 maps any clique of N(0) holding K and w to one of the same
    size holding K and v.  The branch on v bounded every such clique that
    avoids the words dropped before it, in its frame or an enclosing one,
    and a clique holding a dropped word was bounded when that word was
    dropped.  So no clique larger than the incumbent is lost, and the
    anchored search still ends at omega - 1.

    The mask returned is the one the unanchored search over all words
    reports, its first clique of size omega, since it only ever replaces a
    clique by a strictly larger one.  limit, when given, bounds omega from
    above: q**tau for a compatibility graph, tau its host's minimum feedback
    vertex set.  The steps, in order:

    1. The dive: the unanchored search's first clique, one greedy dive.  If
       it meets limit, it is the answer, and the unanchored search's mask,
       since that search never replaces a clique by one of the same size.
    2. The probe, only when the dive falls more than one word short of
       limit: the anchored search with its incumbent preset to limit - 2.
       N(0) holds at most omega - 1 <= limit - 1 words of a clique, so the
       probe yields a clique exactly when omega = limit.
    3. The climb, only when the probe did not yield: the anchored search
       with the dive's size less one as its incumbent, stopped once it
       reaches limit - 1.  Its last clique, if any, gives omega.

    omega is now known from whichever of the probe and the climb ran.  If it
    is the dive's size, the dive is the answer.  Otherwise the unanchored
    search is replayed once, with its incumbent preset to omega - 1 and
    stopped at its first omega-clique.
    Each frame's colour order depends only on its candidate set, and the
    higher incumbent prunes only branches whose colour bound cannot reach
    omega, so the replay visits a subsequence of the unanchored search's
    nodes, in order, and reaches the same clique first.  Neither the probe
    nor the climb chooses the mask; they only find omega, and a code meeting
    limit needs no proof of optimality by search.
    """
    n = len(rows)
    if n == 0:
        return 0
    full = (1 << n) - 1
    comp = [full ^ r ^ (1 << v) for v, r in enumerate(rows)]
    first = next(_improvements(rows, comp, full))
    if first.bit_count() == limit:
        return first
    gens = list(gens)
    omega = first.bit_count()
    if (limit is not None and omega < limit - 1
            and next(_improvements(rows, comp, rows[0], limit - 2, gens), 0)):
        omega = limit
    else:
        for anchored in _improvements(rows, comp, rows[0], omega - 1, gens):
            omega = anchored.bit_count() + 1
            if omega == limit:
                break
    if omega == first.bit_count():
        return first
    return next(_improvements(rows, comp, full, omega - 1))


def _improvements(rows: list[int], comp: list[int], cand: int, best_size: int = 0,
                  gens: Sequence[Sequence[int]] = ()) -> Iterator[int]:
    """Masks of ever larger cliques within cand, the last one maximum.

    Branch and bound with greedy colouring: candidates are coloured greedily
    (each colour class an independent set) and explored from the highest
    colour down, so the colour count bounds every remaining branch.  Only
    cliques larger than best_size are yielded.  Deterministic: the order at
    every choice point depends only on the candidate set.  comp[v] is the
    complement of rows[v] within all words, v itself removed.

    The search this defines colours lowest word first, each class a greedy
    maximal independent set of what earlier classes left, and explores each
    class from its highest word down.  It runs in the mirror of the symbol
    reversal, word i <-> N - 1 - i with N = len(rows), which rows must be
    invariant under, as _max_clique requires.  On the reversed candidates it
    keeps each colour class as one mask, built from the highest bit down,
    and takes the lowest bit of the top class next.  Each word coloured
    costs a bit_length, a shift, an XOR and an AND.  The reversal is a
    graph automorphism that maps every class and choice of one order onto
    those of the other, so each clique yielded, mapped back, is the one the
    search above yields.

    gens, when given, are graph automorphisms as image tables, each mapping
    cand onto itself, and the search prunes by them as _max_clique
    describes; they act on words as given, so the search reads each orbit
    back through the reversal.  The last clique yielded is then still
    maximum, but need not be the one the search without gens yields.  A
    child frame on v keeps the generators with p[v] == v.  A frame resuming
    after its branch on v drops v's orbit from its candidates, and it skips
    class members that are no longer candidates.  With no gens, the steps
    are exactly those of the search without them.
    """
    top = len(rows) - 1

    def mirror(mask: int) -> int:
        return int(f"{mask:0{len(rows)}b}"[::-1], 2)

    def color_classes(cand: int) -> list[int]:
        classes = []
        rest = cand
        while rest:
            avail = before = rest
            while avail:
                v = avail.bit_length() - 1
                rest ^= 1 << v
                avail &= comp[v]
            classes.append(before ^ rest)
        return classes

    def mirrored_orbit(word: int, gens: Sequence[Sequence[int]]) -> int:
        seen = {word}
        todo = [word]
        for x in todo:
            for p in gens:
                y = p[x]
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return sum(1 << top - x for x in seen)

    # Depth-first with an explicit stack, since a clique can be deeper than
    # Python's recursion limit.  Each frame is [clique, size, cand, classes,
    # gens, last], clique, cand and classes mirrored; its classes are
    # consumed from the top one down, and last is the word of its latest
    # branch, unmirrored as gens act on it, whose orbit is not yet dropped.
    cand = mirror(cand)
    stack = [[0, 0, cand, color_classes(cand), gens, -1]]
    while stack:
        frame = stack[-1]
        clique, size, cand, classes, gens, last = frame
        if not classes or size + len(classes) <= best_size:
            stack.pop()
            continue
        members = classes[-1]
        bit = members & -members
        if members == bit:
            classes.pop()
        else:
            classes[-1] = members ^ bit
        if last >= 0:
            cand &= ~mirrored_orbit(last, gens)
            frame[2], frame[5] = cand, -1
        if not cand & bit:
            continue
        v = bit.bit_length() - 1
        word = top - v
        inner = cand & rows[v]
        frame[2] = cand ^ bit
        if gens:
            frame[5] = word
        if inner:
            kept = [p for p in gens if p[word] == word]
            stack.append([clique | bit, size + 1, inner, color_classes(inner), kept, -1])
        elif size + 1 > best_size:
            best_size = size + 1
            yield mirror(clique | bit)


class GuessingCode:
    """A set of words some strategy profile fixes simultaneously.

    Words are distinct full-length tuples over {0..q-1}, stored sorted.
    validate() re-checks the defining condition straight off the host graph,
    independent of whatever search produced the code.
    """

    __slots__ = ("host", "q", "words")

    def __init__(self, host: Graph, q: int, words: Iterable[tuple[int, ...]]):
        if q < 2:
            raise GraphError("alphabet needs at least two symbols")
        self.host = host
        self.q = q
        ws = sorted(tuple(w) for w in words)
        if not ws:
            raise GraphError("a code needs at least one word")
        for w in ws:
            if len(w) != host.n or any(not 0 <= d < q for d in w):
                raise GraphError(f"word {w} does not fit {host.n} vertices over {q} symbols")
        if any(ws[i] == ws[i + 1] for i in range(len(ws) - 1)):
            raise GraphError("code words must be distinct")
        self.words = tuple(ws)

    def __len__(self) -> int:
        return len(self.words)

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


def max_guessing(g: Graph, q: int, cap: int = DEFAULT_WORD_CAP) -> tuple[int, GuessingCode]:
    """Largest code size of g over q symbols, with an optimal code.

    The guessing number is log_q of the size, which is kept as an exact int.
    Solves the maximum clique problem on the full compatibility graph, so the
    result is optimal, not a bound.  The returned code has revalidated itself
    against the definition.
    """
    mask = compatibility_graph(g, q, cap).max_clique_mask()
    strides = [q ** (g.n - 1 - u) for u in range(g.n)]
    code = GuessingCode(g, q, [tuple(i // s % q for s in strides) for i in bits_of(mask)])
    code.validate()
    return len(code), code


def extend_code(code: GuessingCode, d: Decomposition) -> GuessingCode:
    """Lift a code on d's remainder back to d's host along d's matching.

    The matching pairs c(S) vertices with all of S, and d(S) = S together
    with c(S); d has already checked all of this when it was built.  Each old
    word gains q**|S| extensions: every matched pair carries one shared free
    symbol, unmatched c(S) vertices sit at 0, all other vertices keep their
    old value.  The result is validated before it is returned.
    """
    if code.host != d.remainder:
        raise GraphError("code host does not match the graph minus d(S)")
    q = code.q
    new_words = []
    for w in code.words:
        base = [0] * d.host.n
        for i, v in enumerate(d.verts):
            base[v] = w[i]
        for symbols in itertools.product(range(q), repeat=len(d.matching)):
            word = list(base)
            for (c, s), sym in zip(d.matching, symbols):
                word[c] = sym
                word[s] = sym
            new_words.append(tuple(word))
    out = GuessingCode(d.host, q, new_words)
    if len(out) != len(code) * q ** len(d.matching):
        raise GraphError("extension lost words, the input code was malformed")
    out.validate()
    return out
