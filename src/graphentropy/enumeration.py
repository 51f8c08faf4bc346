"""Isomorph-free enumeration of small graphs and the verification suites.

Provides a canonical form (of the relabellings that place the vertices in
refined-colour order, the one whose adjacency bit-string is
lexicographically least, returned as that canonical graph itself), a
vertex-augmentation enumerator for simple graphs up to seven vertices, a
whole-landscape entropy survey that brackets each connected class once,
closing it from one-vertex deletions, its augmentation parent first, where
that makes a search or an LP needless, and adds component brackets for the
disconnected ones, and the three verification suites the survey supports:
the six-vertex pentagon-plus-apex trichotomy, the seven-vertex family with
values 11/3 and 7/2, and the classification of collapsed entropy values
below four.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from contextlib import nullcontext
from functools import lru_cache, partial
from itertools import starmap
from math import gcd, lcm

from .bounds import (
    BoundsReport,
    add_shannon_bound,
    check_fractional_pair,
    combinatorial_bracket,
    deletion_pair,
    entropy_bracket,
    fractional_cover_witness,
    union_report,
)
from .graphs import (
    CapExceededError,
    Graph,
    GraphError,
    automorphisms,
    bits_of,
    connected_components,
    graph_from_bits,
    orbit_representatives,
    permute_mask,
    render_graph,
)
from .rationals import Scaled, rat

DEFAULT_ENUM_CAP = 7


def _refined_colors(rows: tuple[int, ...] | list[int]) -> list[int]:
    """Stable vertex colouring of a simple graph given by its adjacency rows:
    degree, refined by the sorted colours of the neighbours.

    Each round relabels by the sorted (colour, neighbour colours) signatures,
    so a vertex of larger degree always keeps the larger colour.

    A signature is one int.  Vertices of one colour have one degree, and
    among equal-length sorted tuples the lexicographically smaller one has
    more copies of the first colour where the two differ.  So the count
    vector (copies of colour 0, of colour 1, ...), read as one number with
    colour 0 most significant, orders the tuples in reverse; it is
    subtracted from the colour's block.  From the second round on the
    colours are ranks, so a round that splits no class changes none.
    """
    n = len(rows)
    nbrs = []
    for r in rows:
        out = []
        while r:
            low = r & -r
            out.append(low.bit_length() - 1)
            r ^= low
        nbrs.append(out)
    colors = [len(out) for out in nbrs]
    digit = n.bit_length()  # a count is at most n - 1 < 2**digit
    block = digit * (n + 1)
    top = (1 << block) - 1
    classes = -1
    while True:
        weight_of = [1 << digit * (n - c) for c in colors].__getitem__
        sigs = [c << block | top ^ sum(map(weight_of, out)) for c, out in zip(colors, nbrs)]
        ranks = sorted(set(sigs))
        if len(ranks) == classes:
            return colors
        relabel = {s: i for i, s in enumerate(ranks)}
        new = [relabel[s] for s in sigs]
        if new == colors:
            return colors
        colors = new
        classes = len(ranks)
        if classes == n:
            return colors


def canonical_form(g: Graph) -> Graph:
    """The canonical representative of a simple graph's isomorphism class:
    of its relabellings that place the vertices in refined-colour order, the
    one with the least adjacency bit-string.

    The bit-string is graphs.adjacency_bits, the graph6 payload: the upper
    triangle column by column, most significant bit first.  Two graphs have
    equal canonical forms exactly when they are isomorphic.

    Vertices are first split by refined colour; target positions follow the
    colour order, and the search only permutes vertices inside their own
    colour class, with prefix pruning against the best string so far.
    Colours are isomorphism-invariant, so isomorphic graphs have the same
    set of colour-ordered strings, and with it the same least one.  That
    string need not be the least over all relabellings: on DC[ it is 71,
    while the least over all 120 relabellings is 29.
    """
    if not g.is_simple():
        raise GraphError("canonical forms are defined for loopless undirected graphs")
    return graph_from_bits(g.n, _canonical_search(g.rows, _refined_colors(g.rows)))


def _canonical_search(rows: tuple[int, ...] | list[int], colors: list[int],
                      leaf: list[int] | None = None) -> int:
    """Least adjacency bit-string of the simple graph with these rows over
    its relabellings that place the vertices in the order of the given
    refined colours.

    leaf, when given, receives the best leaf's placement: leaf[i] is the
    vertex that lands at position i of the canonical graph.

    Twin pruning: two vertices whose rows agree apart from each other are
    swapped by an automorphism that fixes every other vertex, so placing
    either one next gives the same least completion.  Each node therefore
    tries a vertex only if no lower-numbered twin of it is still unplaced.
    Twins share their refined colour, and the least bit-string does not
    change; K_n and its complement become a single path.
    """
    n = len(rows)
    if n == 0:
        return 0
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    slots = [by_color[c] for c in sorted(colors)]
    twins_below = [0] * n
    for group in by_color.values():
        for k, v in enumerate(group):
            for u in group[:k]:
                if rows[u] & ~(1 << v) == rows[v] & ~(1 << u):
                    twins_below[v] |= 1 << u
    total_bits = n * (n - 1) // 2
    best: int | None = None
    placed = [0] * n

    def extend(depth: int, prefix: int, width: int, used: int) -> None:
        nonlocal best
        if depth == n:
            if best is None or prefix < best:
                best = prefix
                if leaf is not None:
                    leaf[:] = placed
            return
        col_bits = depth
        for v in slots[depth]:
            bit = 1 << v
            if used & bit or twins_below[v] & ~used:
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


def isomorphism_classes(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices, one canonical representative each.

    Grown by vertex augmentation: every class on n vertices arises from some
    class on n - 1 by attaching a new vertex, so augmenting every smaller
    representative by every attachment set and deduplicating covers them all.
    Attachment sets in one orbit of the smaller representative's
    automorphism group give isomorphic graphs, so only the least set of
    each orbit is tried (McKay, Isomorph-free exhaustive generation, 1998).
    The orbits come from graphs.orbit_representatives on the group's
    strong generators: each generator's images of the 2^(n-1) attachment
    sets are tabulated at one step per set, then the orbits are searched
    off the tables, so the pruning costs less than the candidates it saves.

    Canonical deletion, after the same paper: a candidate reaches the
    canonical search only if its new vertex has maximum degree (checked on
    the attachment mask against per-degree masks of the base vertices,
    before its orbit is sought or anything is built) and
    lies in the top class of the refined colouring, whose colours then seed
    the search.  No class is lost.  Refined colours are
    isomorphism-invariant and refine the degree order, so every class G has
    a vertex v in its top colour class; G - v is isomorphic to a stored
    class on n - 1 vertices, and orbit pruning maps N(v) to an attachment
    set that is tried, whose new vertex plays v's part and so is again in
    the top class.
    Results are sorted by canonical bits and returned as the canonical
    representatives themselves, so neither pruning changes the output.
    Alongside, each class keeps the base it was first found from and where
    the base's vertices and the added one sit in it (_classes_cached), at no
    extra search; the survey closes brackets from them.
    """
    return _classes_cached(n)[0]


@lru_cache(maxsize=None)
def _classes_cached(n: int) -> tuple[tuple[Graph, ...], array, bytes, array]:
    """(classes, parents, leaves, bits): isomorphism_classes(n); for each
    class G, aligned with it, the augmentation parent P it was first found
    from, as an index into isomorphism_classes(n - 1), and the canonical
    search's best leaf, the n bytes leaves[i * n:(i + 1) * n]: position k
    of G holds vertex leaf[k] of P, or the added vertex v where leaf[k] is
    n - 1, so G - v is P under that map; and the canonical bits of the
    classes, ascending, which index them (8-byte entries, so n <= 11)."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n == 0:
        return (Graph.empty(0),), array("I"), b"", array("Q", [0])
    # Canonical bits -> (index of the parent, leaf).
    found: dict[int, tuple[int, bytes]] = {}
    new_bit = 1 << (n - 1)
    leaf: list[int] = []
    for index, base in enumerate(_classes_cached(n - 1)[0]):
        base_rows = base.rows
        # at_least[d]: the base vertices of degree d or more.
        at_least = [0] * (n + 1)
        for v, r in enumerate(base_rows):
            for d in range(r.bit_count() + 1):
                at_least[d] |= 1 << v
        # The new vertex needs maximum degree: no base vertex above its
        # degree, or at it and gaining the edge to the new vertex.  The test
        # reads only degrees, so the masks that pass are closed under the
        # base's automorphisms, and only they are sorted into orbits.
        passing = [attach for attach in range(new_bit)
                   if not at_least[attach.bit_count() + 1]
                   | at_least[attach.bit_count()] & attach]
        rep = orbit_representatives(automorphisms(base), passing)
        for attach in passing:
            if rep[attach] != attach:
                continue
            rows = [r | new_bit if attach >> v & 1 else r for v, r in enumerate(base_rows)]
            rows.append(attach)
            colors = _refined_colors(rows)
            if colors[n - 1] != max(colors):
                continue
            bits = _canonical_search(rows, colors, leaf)
            if bits not in found:
                found[bits] = index, bytes(leaf)
    order = sorted(found)
    parents = array("I", (found[bits][0] for bits in order))
    leaves = b"".join(found[bits][1] for bits in order)
    del found  # before the graphs are built, which is when memory peaks
    return (tuple(graph_from_bits(n, bits) for bits in order), parents, leaves,
            array("Q", order))


def enumerate_graphs(n_max: int, connected_only: bool = False, cap: int = DEFAULT_ENUM_CAP):
    """Yield one representative per isomorphism class, sizes 1 through n_max.

    Ascending by size, then by canonical bits.  connected_only filters to
    connected classes.
    """
    if n_max > cap:
        raise CapExceededError(f"enumeration of {n_max}-vertex graphs exceeds the cap {cap}",
                               flag="--cap")
    for n in range(1, n_max + 1):
        for g in isomorphism_classes(n):
            if connected_only and len(connected_components(g)) > 1:
                continue
            yield g


# -- survey -----------------------------------------------------------------------


def bracket_with_fallback(g: Graph, parent=None) -> BoundsReport:
    """The survey's bracket: entropy_bracket(g, lazy_theta=True), closed
    from a one-vertex deletion of g before any LP where that allows.

    A reducible set S with remainder R could never tighten it.  Lower side:
    R's fractional clique cover, the |S| matching edges and the unmatched
    c(S) vertices as singletons cover g, so kappa_f(g) <= kappa_f(R) + |c(S)|
    and n - kappa_f(g) >= |S| + lower(R).  Upper side: c(S) is determined by
    S, and conditioning any feasible h on S leaves a feasible h for each
    component of R, so theta(g) <= |S| + theta(R); deleting S and a
    transversal of R leaves g acyclic, so tau(g) <= |S| + tau(R).  Where
    the lazy bracket skips theta it is already a point.

    parent, for a connected loopless g, describes g - v as (leaf, upper,
    den, upper witness, pair): leaf maps g onto g - v plus v, as
    bounds.deletion_pair reads it (vertex k of g is vertex leaf[k] of g - v,
    or v where leaf[k] is n - 1); upper / den and the witness are the upper
    side of g - v's bracket, in its own labelling; pair is its cover and
    packing, as combinatorial_bracket returns them.  Where the pair lifts
    (bounds.deletion_pair, v reaching level one) it fixes kappa_f(g) =
    kappa_f(g - v); where n - kappa_f then meets the upper side plus one,
    the bracket is a point before any search (_bracket_from_parent).
    Otherwise the lifted pair spares the cover LP, and the upper side
    closes the bracket without the entropy LP where it meets n - kappa_f
    (_deleted).

    The name stays because the benchmark's tracer (perfbench/tracer.py)
    times this function by name.
    """
    if parent is None:
        return entropy_bracket(g, lazy_theta=True)
    report, pair = _bracket_from_parent(g, parent)
    return report if report.exact else add_shannon_bound(g, report, pair)


def _bracket_from_parent(g: Graph, parent) -> tuple[BoundsReport, tuple]:
    """bracket_with_fallback up to the entropy LP.  Returns the report and
    g's own pair.

    First the lift, with no search: where parent's pair lifts to g and
    n - kappa_f(g - v), in ints, meets parent's upper bound plus one, the
    lifted pair is rechecked on g in full (bounds.check_fractional_pair,
    which raises ValueError on a half that fails).  Both halves then hold at
    one total, so kappa_f(g) = kappa_f(g - v), and H(g) <= H(g - v) + 1
    (_deleted) closes the bracket at n - kappa_f: a point with a
    fractional-clique-cover lower witness, a vertex-deletion upper witness,
    the lifted pair as g's own, and no nu, cc or tau.  Otherwise the
    combinatorial bracket of g, with kappa_f from the lifted pair where the
    cover LP would run, closed by parent's upper side where that meets it.
    """
    leaf, up, up_den, up_wit, pair = parent
    v = leaf.index(g.n - 1)
    lifted = deletion_pair(g, leaf, pair)
    if lifted is not None:
        (cliques, weights), packing = lifted
        total, den = sum(weights.ints), weights.den
        if ((g.n * den - total) * up_den == (up + up_den) * den
                and check_fractional_pair(g, *lifted)):
            common = gcd(total, den)
            kf, den = total // common, den // common
            kappa_f, low = rat(kf, den), g.n * den - kf
            report = BoundsReport(Scaled([low, low, kf], den),
                                  fractional_cover_witness(cliques, weights, kappa_f),
                                  {"tag": "vertex-deletion", "vertex": v, "inner": up_wit})
            return report, (cliques, weights, packing)
    report, own = combinatorial_bracket(g, lifted)
    return _deleted(report, v, up, up_den, up_wit), own


def _deleted(report: BoundsReport, v: int, up: int, up_den: int, up_wit) -> BoundsReport:
    """report closed at its lower bound by deleting v, or report itself.

    Conditioning on X_v leaves a feasible h for g - v, so theta(g) <=
    theta(g - v) + 1, and a transversal of g - v plus v is one of g, so
    tau(g) <= tau(g - v) + 1; the entropy of g is therefore at most the
    upper bound up / up_den of g - v plus one.  Where that equals n -
    kappa_f the bracket is a point without the entropy LP: its upper witness
    is {"tag": "vertex-deletion", "vertex": v, "inner": up_wit}, and theta
    is None.  The upper bound, not only an exact value, is read, which is
    sound because tau and theta each drop by at most one."""
    if report.exact:
        return report
    (low, _, kf), den = report.values.ints, report.values.den
    if (up + up_den) * den != low * up_den:
        return report
    up_wit = {"tag": "vertex-deletion", "vertex": v, "inner": up_wit}
    return BoundsReport(Scaled([low, low, kf], den), report.lower_witness, up_wit,
                        report.nu, report.cc, report.tau)


def _induced_bits(rows, mask: int) -> int:
    """The adjacency bits (graphs.adjacency_bits) of the subgraph that the
    simple graph with these rows induces on mask, relabelled densely."""
    verts = list(bits_of(mask))
    bits = 0
    for k, j in enumerate(verts):
        row = rows[j]
        for i in verts[:k]:
            bits = bits << 1 | (row >> i & 1)
    return bits


def _class_index(n: int, bits: int) -> int:
    """Index into isomorphism_classes(n) of the class whose canonical
    representative has these adjacency bits."""
    table = _classes_cached(n)[3]
    i = bisect_left(table, bits)
    if i == len(table) or table[i] != bits:
        raise AssertionError(f"no {n}-vertex class has canonical bits {bits}")
    return i


def _deleted_elsewhere(g: Graph, report: BoundsReport, v: int, report_of) -> BoundsReport:
    """report closed by deleting some vertex of g other than v, or report
    itself: _deleted with the class of g - u for each u outside v's orbit,
    one per orbit, in vertex order.  g - u is looked up by the canonical
    bits of its rows, with no Graph built; report_of(n, i) is the report of
    class i on n vertices."""
    n = g.n
    rep = orbit_representatives(automorphisms(g), [1 << u for u in range(n)])
    tried = {rep[1 << v]}
    for u in range(n):
        if rep[1 << u] in tried:
            continue
        tried.add(rep[1 << u])
        low = (1 << u) - 1
        rows = [r & low | r >> 1 & ~low for w, r in enumerate(g.rows) if w != u]
        bits = _canonical_search(rows, _refined_colors(rows))
        base = report_of(n - 1, _class_index(n - 1, bits))
        closed = _deleted(report, u, base.values.ints[1], base.values.den, base.upper_witness)
        if closed.exact:
            return closed
    return report


def survey_entropy_values(
    n_max: int,
    jobs: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
    connected_only: bool = False,
) -> list[tuple[Graph, BoundsReport, bool]]:
    """Bracket every isomorphism class on up to n_max vertices: one
    (graph, report, connected) triple per class, in enumeration order.

    graph is the canonical representative and report its BoundsReport.  For
    a disconnected class the union witness lists the components in graph's
    own labelling, and each part's witness uses the labelling of its
    component's canonical representative; so does the inner witness of a
    vertex-deletion, in the representative of the class of g - v.

    Every run recomputes and rechecks every value.  The work goes by
    order, one vertex count at a time, so every class of order n - 1 is
    final before any of order n starts, in four rounds, each only on what
    the one before left open:

    - lift: each connected class tries its augmentation parent (the class
      it was enumerated from, and where its vertices sit) first.  Where the
      parent's cover and packing lift to g and n - kappa_f meets the
      parent's upper bound plus one, the lifted pair is rechecked on g and
      the bracket is a point, with no search (_bracket_from_parent).  Up
      to 7 vertices this closes 901 of the 996 connected classes;
    - search: the rest get the combinatorial bracket, kappa_f from the
      lifted pair where the cover LP would run, closed where the parent's
      upper bound plus one meets n - kappa_f;
    - deletion: a class still open tries every other one-vertex deletion,
      one vertex per orbit, by the canonical bits of g - u
      (_deleted_elsewhere);
    - LP: what is still open gets the subset-entropy LP.

    A disconnected class adds the brackets of its components' classes, so
    no LP ever runs twice for the same connected graph.  With jobs > 1 a
    pool of that many workers runs the lift and search rounds as one task
    per class, then the LP round, one order at a time; each lift task
    carries only what it reads of its parent (bracket_with_fallback's
    parent tuple).  The deletion round runs in this process between them,
    so the records are the serial ones.  Results are taken one at a time as
    they come back, and a worker's vertex-deletion witness is pointed back
    at this process's own witness of g - v, so the pool holds one copy of
    each witness, as the serial run does.
    The pool is made before any LP runs, and every LP then runs in a worker,
    so this process never imports numpy.  connected_only skips the
    disconnected classes in the records and reports just the connected
    landscape; a disconnected parent is still added up from its components.

    A component is looked up by its adjacency bits, with no canonical
    search and no Graph of its own: each component of a canonical
    representative, induced and densely relabelled, is its own class's
    canonical representative.  Let G be a canonical representative and C
    one of its components.  Relabelling C among C's own positions leaves
    every pair between C and another component 0, and the pairs inside C
    keep their relative order in G's string.  So, were the canonical string
    the least over all relabellings, a smaller string for C would give a
    smaller string for G.  It is least only over the colour-ordered ones
    (canonical_form), so the claim rests on an exhaustive check, which
    finds no exception among the 32,058 components of all disconnected
    classes up to 9 vertices (28,716 of them in 9-vertex classes).  A cap
    above 9 is unchecked.
    """
    classes = list(enumerate_graphs(n_max, connected_only=connected_only, cap=cap))
    connected_by_order: dict[int, list[Graph]] = {}
    for g in classes:
        if len(connected_components(g)) == 1:
            connected_by_order.setdefault(g.n, []).append(g)
    # Per order: class index -> report, and -> cover and packing.
    reports: dict[int, dict[int, BoundsReport]] = {}
    pairs: dict[int, dict[int, tuple]] = {}

    def report_of(n: int, i: int) -> BoundsReport:
        known = reports.setdefault(n, {})
        report = known.get(i)
        if report is None:  # disconnected, or the empty graph
            parts = _components(_classes_cached(n)[0][i])
            report = known[i] = union_report([list(bits_of(c)) for c, _, _ in parts],
                                             [report_of(k, j) for _, k, j in parts])
        return report

    def pair_of(n: int, i: int) -> tuple:
        known = pairs.setdefault(n, {})
        pair = known.get(i)
        if pair is None:  # disconnected, or the empty graph
            parts = _components(_classes_cached(n)[0][i])
            pair = known[i] = _union_pair(n, [(tuple(bits_of(c)), pair_of(k, j))
                                              for c, k, j in parts])
        return pair

    runner = nullcontext()
    if jobs > 1 and sum(map(len, connected_by_order.values())) > 1:
        # Imported here: multiprocessing adds to the start-up of every command.
        from multiprocessing import Pool
        runner = Pool(jobs, initializer=_one_blas_thread)
    position: dict[Graph, int] = {}
    with runner as pool:
        run = _starmap if pool is None else partial(_imap_star, pool)
        for n in sorted({g.n for g in classes}):
            order, parents, leaves, _ = _classes_cached(n)
            position.update((g, i) for i, g in enumerate(order))
            todo = [position[g] for g in connected_by_order.get(n, ())]
            tasks = []
            for i in todo:
                base = report_of(n - 1, parents[i])
                tasks.append((order[i], (leaves[i * n:(i + 1) * n], base.values.ints[1],
                                         base.values.den, base.upper_witness,
                                         pair_of(n - 1, parents[i]))))
            done, own = reports.setdefault(n, {}), pairs.setdefault(n, {})
            for i, task, (report, pair) in zip(todo, tasks,
                                               run(_bracket_from_parent, tasks, 8)):
                if report.upper_witness["tag"] == "vertex-deletion":
                    # A worker's report holds its own copy of the parent's
                    # witness chain; share this process's one instead.
                    report.upper_witness["inner"] = task[1][3]
                elif not report.exact:
                    v = leaves.index(n - 1, i * n) - i * n
                    report = _deleted_elsewhere(order[i], report, v, report_of)
                done[i], own[i] = report, pair
            todo = [i for i in todo if not done[i].exact]
            for i, report in zip(todo, run(
                    add_shannon_bound, [(order[i], done[i], own[i]) for i in todo], 1)):
                done[i] = report
    return [(g, report_of(g.n, position[g]), len(connected_components(g)) == 1) for g in classes]


def _components(g: Graph) -> list[tuple[int, int, int]]:
    """(vertex mask, order, class index) of each component of g, a
    canonical representative, found by the component's adjacency bits as
    it stands (survey_entropy_values says why that is its class's)."""
    return [(c, c.bit_count(), _class_index(c.bit_count(), _induced_bits(g.rows, c)))
            for c in connected_components(g)]


def _union_pair(n: int, parts) -> tuple:
    """The cover and packing of a disjoint union on n vertices from its
    parts': parts lists (vertices, pair), vertices[j] the vertex of the
    union that vertex j of the part is.  Both halves add over the parts, so
    an optimal pair per part gives an optimal pair of the union."""
    w_den = lcm(*(pair[1].den for _, pair in parts))
    y_den = lcm(*(pair[2].den for _, pair in parts))
    cliques, weights, ys = [], [], [0] * n
    for verts, (part_cliques, part_weights, packing) in parts:
        cliques += (permute_mask(verts, c) for c in part_cliques)
        weights += (k * (w_den // part_weights.den) for k in part_weights.ints)
        for j, y in enumerate(packing.ints):
            ys[verts[j]] = y * (y_den // packing.den)
    return tuple(cliques), Scaled(weights, w_den), Scaled(ys, y_den)


def _starmap(fn, tasks, chunksize):
    """fn(*task) for each task, in order, computed in this process as they
    are read."""
    return starmap(fn, tasks)


def _imap_star(pool, fn, tasks, chunksize):
    """fn(*task) for each task, in order, computed by pool and handed over
    as they come back, so that each can be dropped before the rest arrive."""
    return pool.imap(_call, [(fn, task) for task in tasks], chunksize)


def _call(job):
    fn, args = job
    return fn(*args)


def collapsed_values(records) -> list:
    """The distinct values of the exact brackets among survey triples, sorted.

    Brackets are compared in the ints they hold (BoundsReport.values), each
    value reduced to lowest terms; one rational is made per distinct value."""
    distinct = set()
    for _, report, _ in records:
        if report.exact:
            p, q = report.values.ints[0], report.values.den
            g = gcd(p, q)
            distinct.add((p // g, q // g))
    return sorted(rat(p, q) for p, q in distinct)


def _one_blas_thread() -> None:
    """Pool initializer: numpy in this worker runs BLAS on one thread, so
    jobs workers keep to jobs cores; the float simplex gains nothing from
    more.  BLAS reads these variables when numpy is first imported, so a
    worker forked after the parent had imported numpy keeps its thread
    count.  The command line imports numpy only for an LP, after the fork."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


# -- verification suites -------------------------------------------------------------
# Each suite returns a dict: its name, its pass flag, then itemized evidence.


def pentagon_apex(mask: int) -> Graph:
    """The 6-vertex graph: a 5-cycle plus one extra vertex joined to mask."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(v, 5) for v in bits_of(mask)]
    return Graph.undirected(6, edges)


def _has_consecutive_triple(mask: int) -> bool:
    return any(all(mask >> ((i + d) % 5) & 1 for d in range(3)) for i in range(5))


def verify_wheel_lemma() -> dict:
    """Check the apex trichotomy over all 32 attachments into the 5-cycle.

    An isolated apex keeps the pentagon's 5/2; an apex seeing three
    consecutive cycle vertices forces 7/2; every other attachment gives
    exactly 3.  Each case is certified by a collapsed bracket.

    The bracket is the transversal-lazy one: the subset-entropy LP is
    skipped only where the transversal already meets the lower bound, and
    then theta >= entropy >= lower = tau, so the LP could change neither
    side nor its witness.  The pentagon's bracket is computed once, and
    every case with an apex edge is bracketed by bracket_with_fallback from
    it, G - apex being the pentagon in G's own labelling: its cover and
    packing settle kappa_f where the apex reaches level one, and its upper
    bound plus one closes the bracket where that meets the lower bound.
    The isolated apex's case is the union of the pentagon's report and the
    lone apex's, as entropy_bracket would add them, so no LP runs twice.
    """
    pentagon = Graph.cycle(5)  # the rim of every pentagon_apex, labelled as there
    report, pair = combinatorial_bracket(pentagon)
    report = add_shannon_bound(pentagon, report, pair)
    parent = (bytes(range(6)), report.values.ints[1], report.values.den, report.upper_witness,
              pair)
    isolated = union_report([list(range(5)), [5]],
                            [report, entropy_bracket(Graph.empty(1), lazy_theta=True)])
    entries = []
    failures = []
    open_brackets = []
    for mask in range(32):
        g = pentagon_apex(mask)
        if mask == 0:
            expected = rat("5/2")
        elif _has_consecutive_triple(mask):
            expected = rat("7/2")
        else:
            expected = rat(3)
        bracket = bracket_with_fallback(g, parent) if mask else isolated
        ok = bracket.exact and bracket.lower == expected
        entry = {
            "apex_neighbors": list(bits_of(mask)),
            "expected": expected,
            "lower": bracket.lower,
            "upper": bracket.upper,
            "ok": ok,
        }
        entries.append(entry)
        if not bracket.exact:
            open_brackets.append(entry)
        if not ok:
            failures.append(entry)
    return {"suite": "wheel", "ok": not failures, "cases": entries, "failures": failures,
            "open_brackets": open_brackets}


def g_family() -> tuple[Graph, ...]:
    """The six 7-vertex graphs: a pentagon v0..v4 plus adjacent v5, v6.

    The first has entropy 11/3; the other five have 7/2.  Edge lists are
    frozen here and everything about them is recomputed from scratch.
    """
    pentagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)]
    extras = [
        [(5, 0), (5, 1), (6, 3)],
        [(5, 0), (5, 2), (6, 1)],
        [(5, 0), (5, 2), (6, 3)],
        [(5, 0), (5, 2), (6, 1), (6, 3)],
        [(5, 0), (6, 1)],
        [(5, 0), (6, 2)],
    ]
    return tuple(Graph.undirected(7, pentagon + extra) for extra in extras)


def verify_g_family() -> dict:
    """Certify the seven-vertex family: 11/3 once, then 7/2 five times.

    The first graph's lower bound must come from the fractional clique cover
    (computed exactly as 10/3, which 7 - 11/3 cross-checks; no integral cover
    reaches it) and its upper bound from the subset-entropy LP.
    """
    graphs = g_family()
    entries = []
    failures = []
    first = entropy_bracket(graphs[0])
    ok_first = (
        first.exact
        and first.lower == rat("11/3")
        and first.lower_witness["tag"] == "fractional-clique-cover"
        and first.upper_witness["tag"] == "shannon-lp"
        and first.kappa_f == rat("10/3")
    )
    entry = {
        "graph": "first",
        "expected": rat("11/3"),
        "lower": first.lower,
        "upper": first.upper,
        "lower_witness": first.lower_witness["tag"],
        "upper_witness": first.upper_witness["tag"],
        "fractional_cover": first.kappa_f,
        "cross_check": "cover weights total 10/3 = 7 - 11/3; the sometimes-seen "
                       "value 10/13 is inconsistent with those weights",
        "ok": ok_first,
    }
    entries.append(entry)
    if not ok_first:
        failures.append(entry)
    for idx, g in enumerate(graphs[1:], start=2):
        bracket = entropy_bracket(g)
        ok = bracket.exact and bracket.lower == rat("7/2")
        entry = {
            "graph": f"variant {idx}",
            "expected": rat("7/2"),
            "lower": bracket.lower,
            "upper": bracket.upper,
            "ok": ok,
        }
        entries.append(entry)
        if not ok:
            failures.append(entry)
    return {"suite": "gfamily", "ok": not failures, "cases": entries, "failures": failures}


def verify_small_theorems(jobs: int = 1) -> dict:
    """Check the collapsed-value landscape on up to seven vertices.

    No collapsed value may fall strictly inside (1,2), (2,5/2) or (5/2,3);
    collapsed values inside (3,4) must be 7/2 or 11/3; the only connected
    graph collapsing to 5/2 is the pentagon and the only one collapsing to
    11/3 is the first graph of g_family().
    """
    records = survey_entropy_values(7, jobs=jobs)
    counterexamples = []
    bad_window = []
    half_wits = []
    third_wits = []
    unresolved = []
    for g, report, connected in records:
        if not report.exact:
            unresolved.append({"graph6": render_graph(g, "graph6"),
                               "lower": report.lower, "upper": report.upper})
            continue
        # The value is p/q, compared with the gap and window ends in ints.
        p, q = report.values.ints[0], report.values.den
        if q < p < 3 * q and p != 2 * q and 2 * p != 5 * q:
            counterexamples.append({"graph6": render_graph(g, "graph6"), "value": report.lower})
        if 3 * q < p < 4 * q and 2 * p != 7 * q and 3 * p != 11 * q:
            bad_window.append({"graph6": render_graph(g, "graph6"), "value": report.lower})
        if connected and 2 * p == 5 * q:
            half_wits.append(g)
        elif connected and 3 * p == 11 * q:
            third_wits.append(g)
    # Survey graphs are canonical representatives already.
    ok = (
        not counterexamples
        and not bad_window
        and half_wits == [canonical_form(Graph.cycle(5))]
        and third_wits == [canonical_form(g_family()[0])]
    )
    return {
        "suite": "theorem2",
        "ok": ok,
        "classes": len(records),
        "collapsed_values": [v for v in collapsed_values(records) if v <= 4],
        "gap_counterexamples": counterexamples,
        "window_violations": bad_window,
        "connected_5/2_witnesses": [render_graph(g, "graph6") for g in half_wits],
        "connected_11/3_witnesses": [render_graph(g, "graph6") for g in third_wits],
        "unresolved": unresolved,
    }
