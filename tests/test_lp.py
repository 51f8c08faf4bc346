import hashlib
import random
import re
from fractions import Fraction
from math import lcm

import pytest

from graphentropy import lp as lp_module
from graphentropy import rationals
from graphentropy.bounds import (
    _entropy_dual,
    _largest_independent_set,
    build_fractional_cover_lp,
    build_shannon_lp,
    clique_cover_number,
    closure_map,
    fractional_clique_cover_number,
)
from graphentropy.enumeration import enumerate_graphs, isomorphism_classes
from graphentropy.graphs import Graph, automorphisms, mask_of
from graphentropy.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpError,
    LpSolution,
    _basic_values,
    _crash_basis,
    _factor,
    _float_basis,
    _simplex,
    _solve,
    _solve_transposed,
    _standardize,
    solve,
    verify_certificates,
)
from graphentropy.rationals import Rational, Scaled, rat, rat_str, scaled

from _oracles import (
    lp_vertex_solve,
    rational_solve_linear,
    rational_verify_certificates,
)
from conftest import g1


def test_single_variable_box():
    lp = LinearProgram(1, "max", [1], [({0: 1}, LE, 1)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 1
    assert sol.primal == (1,)


def test_binding_sum_constraint():
    lp = LinearProgram(
        2, "max", [1, 1],
        [({0: 2, 1: 2}, LE, 3), ({0: 1}, LE, 1), ({1: 1}, LE, 1)],
    )
    assert solve(lp).objective == rat("3/2")


def test_statuses():
    assert solve(LinearProgram(1, "max", [1])).status == UNBOUNDED
    lp = LinearProgram(1, "max", [1], [({0: 1}, LE, -1)])
    assert solve(lp).status == INFEASIBLE


def test_dimension_mismatch_is_error():
    with pytest.raises(LpError):
        LinearProgram(2, "max", [1, 1], [({5: 1}, LE, 1)])
    with pytest.raises(LpError):
        LinearProgram(2, "maximize", [1, 1])


def test_only_int_programs_are_accepted():
    """A rational or float coefficient, right-hand side or objective entry
    and a dense row are errors naming where they sit; free variables are no
    longer a parameter."""
    fine = ({0: 1}, LE, 1)
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(LpError, match="row 1"):
            LinearProgram(1, "max", [1], [fine, ({0: bad}, LE, 1)])
        with pytest.raises(LpError, match="row 1"):
            LinearProgram(1, "max", [1], [fine, ({0: 1}, GE, bad)])
        with pytest.raises(LpError, match="objective"):
            LinearProgram(1, "max", [bad], [fine])
        with pytest.raises(LpError, match="objective"):
            LinearProgram(2, "min", {1: bad}, [fine])
    with pytest.raises(LpError, match="row 0"):
        LinearProgram(2, "max", [1, 1], [([1, 1], LE, 1)])
    with pytest.raises(TypeError):
        LinearProgram(1, "max", [1], [fine], free_vars=[0])


def test_g1_cover_lp_value_and_quoted_weights():
    lp, cliques = build_fractional_cover_lp(g1())
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == rat("10/3")

    named = {
        mask_of([0, 1, 5]): rat("1/3"),
        mask_of([2, 3]): rat("1/3"),
        mask_of([3, 4]): rat("1/3"),
        mask_of([3, 6]): rat("1/3"),
        mask_of([0, 4]): rat("2/3"),
        mask_of([1, 2]): rat("2/3"),
        mask_of([5, 6]): rat("2/3"),
    }
    assert sum(named.values()) == rat("10/3")
    host = g1()
    for clique, _ in named.items():
        members = [v for v in range(7) if clique >> v & 1]
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                assert host.has_arc(u, v) and host.has_arc(v, u)
    for v in range(7):
        cover = sum((w for c, w in named.items() if c >> v & 1), rat(0))
        assert cover >= 1


def test_certificates_detect_tampering():
    lp = LinearProgram(
        2, "max", [2, 3],
        [({0: 1, 1: 2}, LE, 4), ({0: 1}, GE, 1), ({0: 1, 1: 1}, EQ, 3)],
    )
    sol = solve(lp)
    ok, why = verify_certificates(lp, sol)
    assert ok, why

    bad_primal = type(sol)(sol.status, sol.objective,
                           (sol.primal[0] + 1, sol.primal[1]), sol.dual)
    ok, why = verify_certificates(lp, bad_primal)
    assert not ok

    bad_value = type(sol)(sol.status, sol.objective + 1, sol.primal, sol.dual)
    ok, why = verify_certificates(lp, bad_value)
    assert not ok


def test_scaled_gives_python_ints():
    """scaled puts rationals of the active backend, Fractions and ints over
    their least common denominator, as Python ints."""
    values = [rat(1, 6), Fraction(-3, 4), 2, Rational(0), rat(5, 2)]
    ints, scale = scaled(values)
    assert (ints, scale) == ([2, -9, 24, 0, 30], 12)
    assert all(type(k) is int for k in ints + [scale])
    assert scaled([]) == ([], 1)


def test_solver_determinism(rng):
    for _ in range(30):
        lp = _random_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.status == b.status
        assert a.objective == b.objective
        assert a.primal == b.primal
        assert a.dual == b.dual


def _random_lp(rng, max_vars: int = 4, max_rows: int = 5) -> LinearProgram:
    n = rng.randint(1, max_vars)
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        coeffs = {j: rng.randint(-3, 3) for j in range(n)}
        rel = rng.choice([LE, LE, LE, GE, EQ])
        rhs = rng.randint(0, 6) if rel == LE else rng.randint(-4, 4)
        rows.append((coeffs, rel, rhs))
    objective = [rng.randint(-3, 3) for _ in range(n)]
    sense = rng.choice(["max", "min"])
    return LinearProgram(n, sense, objective, rows)


def test_random_lps_match_vertex_oracle(rng):
    optimal_seen = 0
    for _ in range(250):
        lp = _random_lp(rng)
        sol = solve(lp)
        status, value = lp_vertex_solve(lp)
        assert sol.status == status, f"{lp.rows} -> {sol.status} vs {status}"
        if status == OPTIMAL:
            optimal_seen += 1
            assert sol.objective == value
            ok, why = verify_certificates(lp, sol)
            assert ok, why
    assert optimal_seen >= 100


def test_strong_duality_exact(rng):
    for _ in range(100):
        lp = _random_lp(rng)
        sol = solve(lp)
        if sol.status != OPTIMAL:
            continue
        dual_value = sum((y * rhs for y, (_, _, rhs) in zip(sol.dual, lp.rows)),
                        rat(0))
        assert dual_value == sol.objective


# Beale's example, its objective and first row times 4 and second row times
# 2: from the slack basis, Dantzig's rule with first-row ties cycles on it.
BEALE = LinearProgram(4, "min", [-3, 80, -2, 24], [
    ({0: 1, 1: -32, 2: -4, 3: 36}, LE, 0),
    ({0: 1, 1: -24, 2: -1, 3: 6}, LE, 0),
    ({2: 1}, LE, 1),
])
# A repeated equality row leaves an artificial basic at zero after phase 1.
REPEATED = LinearProgram(3, "max", [1, 2, 1], [
    ({0: 1, 1: 1}, EQ, 2),
    ({0: 2, 1: 2}, EQ, 4),
    ({1: 1, 2: 1}, LE, 3),
    ({0: 2}, GE, 1),
])


def test_float_guided_path_agrees_with_pure_exact(rng):
    """The one exact simplex reaches the same status and value from the float
    proposal (warm), from the slack/artificial basis (cold) and from an
    arbitrary, possibly singular, choice of columns."""
    known = {BEALE: rat(-5), REPEATED: rat(5)}
    lps = [BEALE, REPEATED]
    lps += [build_shannon_lp(g) for g in (Graph.cycle(5), Graph.path(5), Graph.complete(5))]
    lps += [_random_lp(rng) for _ in range(250)]
    proposed = 0
    for lp in lps:
        s = _standardize(lp)
        proposal = _float_basis(s)
        proposed += proposal is not None
        warm = _simplex(s, proposal or s.id_col)
        cold = _simplex(s, s.id_col)
        anywhere = _simplex(s, [rng.randrange(s.ncols) for _ in s.rhs])
        assert warm.status == cold.status == anywhere.status
        assert warm.objective == cold.objective == anywhere.objective
        if lp in known:
            assert warm.objective == known[lp]
        if warm.status == OPTIMAL:
            for sol in (warm, cold, anywhere):
                ok, why = verify_certificates(lp, sol)
                assert ok, why
    assert proposed >= 100


def test_shannon_lp_shape():
    lp = build_shannon_lp(Graph.cycle(5))
    assert lp.num_vars == 32
    assert lp.objective[31] == 1
    assert sum(1 for c in lp.objective if c != 0) == 1
    lp7 = build_shannon_lp(g1())
    assert lp7.num_vars == 128


def _random_rational(rng, top: int, zero_p: float = 0.0):
    if rng.random() < zero_p:
        return rat(0)
    return rat(rng.randint(-top, top), rng.randint(1, 4))


def _random_wide_lp(rng, max_vars: int = 3, max_rows: int = 4) -> LinearProgram:
    """Integer coefficients, right-hand sides and objectives wider than
    _random_lp's, negative right-hand sides, and all three relations."""
    n = rng.randint(1, max_vars)
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        coeffs = {j: _random_int(rng, 24, zero_p=0.25) for j in range(n)}
        rows.append((coeffs, rng.choice([LE, GE, EQ]), _random_int(rng, 32)))
    objective = [_random_int(rng, 20, zero_p=0.2) for _ in range(n)]
    return LinearProgram(n, rng.choice(["max", "min"]), objective, rows)


def _random_int(rng, top: int, zero_p: float = 0.0) -> int:
    return 0 if rng.random() < zero_p else rng.randint(-top, top)


def _vertex_at(lp: LinearProgram, basis):
    """Primal and dual of lp at a basis of its standard form, solved by
    rational elimination on the program's rows, int entries lifted to
    rationals.  A dependent column gives way to the identity column of the
    row it leaves without a pivot, as in the solver; only the slack,
    surplus and artificial columns are read from _standardize, whose layout
    test_standard_form_follows_its_layout checks."""
    s = _standardize(lp)
    m = len(lp.rows)
    cols = [{} for _ in range(s.ncols)]
    b = []
    for i, (coeffs, _, rhs) in enumerate(lp.rows):
        for j, c in coeffs:
            cols[j][i] = rat(c)
        b.append(rat(rhs))
    for j in range(lp.num_vars, s.ncols):
        for i, a in s.column(j):
            cols[j][i] = rat(a)
    zero = rat(0)
    basis = list(basis)
    z, dependent = rational_solve_linear(
        [[cols[j].get(i, zero) for j in basis] for i in range(m)], b)
    if dependent:
        for k, i in dependent:
            basis[k] = s.id_col[i]
        z, _ = rational_solve_linear(
            [[cols[j].get(i, zero) for j in basis] for i in range(m)], b)
    sign = 1 if lp.sense == "max" else -1
    cost = [rat(sign * c) for c in lp.objective] + [zero] * (s.ncols - lp.num_vars)
    y, _ = rational_solve_linear(
        [[cols[j].get(i, zero) for i in range(m)] for j in basis], [cost[j] for j in basis])
    x = [zero] * s.ncols
    for k, j in enumerate(basis):
        x[j] = z[k]
    primal = tuple(x[j] for j in range(lp.num_vars))
    dual = tuple(sign * yi for yi in y)
    return primal, dual


def test_rational_lps_match_vertex_oracle(rng, exact_steps):
    """Wide integer rows, right-hand sides of both signs, objectives and all
    three relations: a wrong slack or artificial entry or a wrong dual
    denominator shows in the value, the certificates, a warm solution that
    is not the vertex of its proposed basis, or a float proposal that is not
    optimal at once."""
    optimal_seen = proposed = 0
    rels_seen = set()
    for _ in range(300):
        lp = _random_wide_lp(rng)
        sol = solve(lp)
        status, value = lp_vertex_solve(lp)
        assert sol.status == status, lp.rows
        if status != OPTIMAL:
            continue
        optimal_seen += 1
        rels_seen |= {rel for _, rel, _ in lp.rows}
        assert sol.objective == value
        ok, why = verify_certificates(lp, sol)
        assert ok, why
        s = _standardize(lp)
        proposal = _float_basis(s)
        exact_steps.clear()
        warm = _simplex(s, proposal or s.id_col)
        if proposal is not None:
            proposed += 1
            assert not exact_steps, "the float proposal was not optimal"
            assert (warm.primal, warm.dual) == _vertex_at(lp, proposal), lp.rows
    assert optimal_seen >= 60 and proposed >= 60, (optimal_seen, proposed)
    assert rels_seen == {LE, GE, EQ}


def _integer_system(rows, rhs):
    """Each row and its right-hand side times their least common denominator,
    rows as sparse {column: int} maps."""
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        scale = lcm(*(v.denominator for v in row + [b]))
        out_rows.append({j: int(v * scale) for j, v in enumerate(row) if v})
        out_rhs.append(int(b * scale))
    return out_rows, out_rhs


def _transposed(rows, n):
    out = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def _as_rationals(rows, n):
    return [[rat(row.get(j, 0)) for j in range(n)] for row in rows]


def _wide_system(rng):
    """A square integer system with entries up to 12, so that pivots other
    than +-1 are common, and a dependent column two times in five."""
    n = rng.randint(2, 7)
    zero_p = rng.choice([0.0, 0.3, 0.6])
    rows = [{j: v for j in range(n) if (v := _random_int(rng, 12, zero_p))} for _ in range(n)]
    if rng.random() < 0.4:
        j, k = rng.sample(range(n), 2)
        f = rng.choice([-3, -2, 2, 3])
        for row in rows:
            row.pop(j, None)
            if k in row:
                row[j] = f * row[k]
    return rows, [_random_int(rng, 9) for _ in range(n)]


def test_integer_solve_matches_rational_oracle(rng):
    """From one factorization, B x = b, B^T w = c and B x = b' each equal
    the rational solve, and a singular matrix gives its dependent pairs, on
    square rational systems scaled to integers, singular ones included.
    Wide integer systems, whose pivots are often not +-1, reach the content
    division and the common-denominator scaling."""
    extra = random.Random(1)
    singular = 0
    divided = scaled = scaled_t = 0
    systems = []
    for _ in range(400):
        n = rng.randint(1, 7)
        zero_p = rng.choice([0.0, 0.4, 0.7])
        rows = [[_random_rational(rng, 4, zero_p) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            j, k = rng.sample(range(n), 2)
            f = _random_rational(rng, 2)
            for row in rows:
                row[j] = f * row[k]
        rhs = [_random_rational(rng, 5) for _ in range(n)]
        systems.append(_integer_system(rows, rhs))
    systems += [_wide_system(extra) for _ in range(200)]
    for rows, b in systems:
        n = len(rows)
        lu = _factor(rows)
        divided += any(g > 1 for _, _, ops in lu[0] for *_, g in ops)
        expected = rational_solve_linear(_as_rationals(rows, n), [rat(v) for v in b])
        if expected[0] is None:
            singular += 1
            assert lu[2] == expected[1], rows
            continue
        assert not lu[2], rows
        c = [_random_int(extra, 9) for _ in range(n)]
        b2 = [_random_int(extra, 9, zero_p=0.3) for _ in range(n)]
        columns = _transposed(rows, n)
        for solve_with, matrix, rhs in ((_solve, rows, b), (_solve_transposed, columns, c),
                                        (_solve, rows, b2)):
            x, den = solve_with(lu, rhs)
            assert den > 0
            scaled += solve_with is _solve and den > 1
            scaled_t += solve_with is _solve_transposed and den > 1
            got = [rat(v, den) for v in x]
            assert got == rational_solve_linear(_as_rationals(matrix, n), [rat(v) for v in rhs])[0]
    assert 150 <= singular <= 450, singular
    assert min(divided, scaled, scaled_t) >= 50, (divided, scaled, scaled_t)


def test_one_factorization_per_basis(rng, monkeypatch, exact_steps, factorizations):
    """At an optimal float proposal the exact simplex factors the basis once
    and prices it from that factorization.  Without numpy it factors the
    starting basis, the slack/artificial basis that phase 1 also starts
    from, and each basis a pivot reaches, once each (a pivot that finds the
    program unbounded reaches none): one factorization serves both the
    duals and the entering column."""
    lps = [BEALE, REPEATED]
    lps += [build_shannon_lp(g) for g in (Graph.cycle(5), Graph.path(5))]
    lps += [_entropy_dual(g, closure_map(g), automorphisms(g))[0]
            for g in (Graph.cycle(5), Graph.cycle(7), g1())]
    lps += [_random_lp(rng) for _ in range(100)]
    warm = 0
    for lp in lps:
        s = _standardize(lp)
        proposal = _float_basis(s)
        exact_steps.clear()
        factorizations.clear()
        _simplex(s, proposal or s.id_col)
        if proposal is not None and not exact_steps:
            warm += 1
            assert len(factorizations) == 1, lp.rows
    assert warm >= 40, warm
    monkeypatch.setattr(lp_module, "_numpy", lambda: None)
    pivots = 0
    for lp in lps:
        exact_steps.clear()
        factorizations.clear()
        unbounded = solve(lp).status == UNBOUNDED
        pivots += exact_steps.count("_exchange")
        assert len(factorizations) == 1 + exact_steps.count("_exchange") - unbounded, lp.rows
    assert pivots >= 200, pivots


def _corrupted(rng, lp, sol):
    """The solution with one certificate or the reported value broken."""
    x, y = list(sol.primal), list(sol.dual)
    j = rng.randrange(lp.num_vars)
    nudged = x[:j] + [x[j] + rng.choice([-1, 1]) * rat(1, 3)] + x[j + 1:]
    yield LpSolution(OPTIMAL, sol.objective, nudged, y)
    i = rng.randrange(len(lp.rows))
    yield LpSolution(OPTIMAL, sol.objective, x, y[:i] + [-y[i]] + y[i + 1:])
    # A move of y_i that keeps its sign condition, so stationarity or the
    # duality equation has to catch it.
    rel = lp.rows[i][1]
    step = rng.choice([-1, 1]) if rel == EQ else 1 if (rel == LE) == (lp.sense == "max") else -1
    yield LpSolution(OPTIMAL, sol.objective, x, y[:i] + [y[i] + step * rat(1, 2)] + y[i + 1:])
    yield LpSolution(OPTIMAL, sol.objective + rat(1, 7), x, y)
    yield LpSolution(OPTIMAL, sol.objective, x[:-1], y)
    yield LpSolution(OPTIMAL, sol.objective, x, y + [rat(0)])
    yield LpSolution(INFEASIBLE)


def test_certificate_check_matches_rational_oracle(rng):
    """The integer check returns exactly the rational check's (ok, why), on
    solved programs and on corrupted certificates reaching every branch."""
    branches = set()
    lps = [_random_wide_lp(rng) for _ in range(150)] + [_random_lp(rng) for _ in range(150)]
    for lp in lps:
        sol = solve(lp)
        if sol.status != OPTIMAL:
            continue
        for candidate in [sol, *_corrupted(rng, lp, sol)]:
            verdict = verify_certificates(lp, candidate)
            assert verdict == rational_verify_certificates(lp, candidate), (lp.rows, candidate)
            branches.add(re.sub(r"\d+|infeasible", "#", verdict[1]))
    assert branches == {
        "ok",
        "no certificates for status #",
        "certificate vectors missing or mis-sized",
        "primal variable # negative",
        "row # violated",
        "dual sign wrong on row #",
        "dual stationarity fails on variable #",
        "duality gap is nonzero",
        "reported objective mismatches the primal point",
    }, branches


def test_solution_reads_the_solvers_ints(rng, monkeypatch):
    """solve makes no rational: an optimal solution holds its objective,
    primal and dual as Python ints over one positive denominator each, and
    objective, primal and dual read as exactly those ints over their
    denominator, on the seeded corpora, Beale's and the repeated-row
    programs, Shannon LPs and entropy duals."""
    lps = [BEALE, REPEATED]
    lps += [build_shannon_lp(g) for g in (Graph.cycle(5), Graph.path(5))]
    lps += [_entropy_dual(g, closure_map(g), automorphisms(g))[0]
            for g in (Graph.cycle(5), Graph.cycle(7), g1())]
    lps += [_random_lp(rng) for _ in range(150)] + [_random_wide_lp(rng) for _ in range(150)]
    made = []
    real = rationals.Rational
    monkeypatch.setattr(rationals, "Rational", lambda *a: made.append(a) or real(*a))
    sols = [solve(lp) for lp in lps]
    assert not made, made
    monkeypatch.undo()
    optimal = 0
    for lp, sol in zip(lps, sols):
        if sol.status != OPTIMAL:
            assert sol.objective is sol.primal is sol.dual is None
            continue
        optimal += 1
        for vec, size in ((sol.value, 1), (sol.x, lp.num_vars), (sol.y, len(lp.rows))):
            assert type(vec) is Scaled and len(vec.ints) == size
            assert all(type(v) is int for v in vec.ints)
            assert type(vec.den) is int and vec.den > 0
        assert sol.objective == Rational(sol.value.ints[0], sol.value.den)
        assert sol.primal == tuple(Rational(v, sol.x.den) for v in sol.x.ints)
        assert sol.dual == tuple(Rational(v, sol.y.den) for v in sol.y.ints)
        assert all(type(v) is Rational for v in (sol.objective, *sol.primal, *sol.dual))
    assert optimal >= 100, optimal


def test_float_basis_is_optimal_at_once(exact_steps):
    """The float run from the slack/artificial basis proposes an optimal
    basis (no exact pivot, no phase-1 restart) on every entropy dual and
    covering LP of the connected classes up to 7 vertices.  On seeded
    programs, test_random_lps_match_vertex_oracle and
    test_rational_lps_match_vertex_oracle hold the outcome from this
    proposal to lp_vertex_solve."""
    lps = []
    for g in enumerate_graphs(7, connected_only=True):
        if closure_map(g)[0] != g.vertex_mask:
            lps.append(_entropy_dual(g, closure_map(g), automorphisms(g))[0])
        lps.append(build_fractional_cover_lp(g)[0])
    assert len(lps) == 1991
    for lp in lps:
        s = _standardize(lp)
        proposal = _float_basis(s)
        exact_steps.clear()
        _simplex(s, proposal or s.id_col)
        assert proposal is not None and not exact_steps, lp.rows


def test_crash_start_is_optimal_at_once(exact_steps):
    """On the entropy dual of every connected class up to 7 vertices, the
    crash basis over the rows tight at the fractional clique cover's entropy
    function keeps the objective row's artificial, is nonsingular, and has
    every basic value zero but that artificial's 1.  The float run from it
    proposes an optimal basis: the exact simplex makes no pivot and no
    phase-1 restart."""
    duals = crashed = 0
    for g in enumerate_graphs(7, connected_only=True):
        if closure_map(g)[0] == g.vertex_mask:
            continue
        gens = automorphisms(g)
        cover = fractional_clique_cover_number(
            g, clique_cover_number(g)[1], _largest_independent_set(g))[1:]
        dual, var, crash = _entropy_dual(g, closure_map(g), gens, cover)
        s = _standardize(dual)
        basis = _crash_basis(s, crash)
        art = s.arts[0]
        assert s.arts == [art] and basis[var[g.vertex_mask]] == art
        checked, z, _ = _basic_values(s, basis)
        assert checked == basis, "the crash basis is singular"
        assert z == [int(j == art) for j in basis]
        duals += 1
        crashed += basis != s.id_col
        proposal = _float_basis(s, crash)
        exact_steps.clear()
        _simplex(s, proposal or s.id_col)
        assert proposal is not None and not exact_steps, dual.rows
    assert duals == 995 and crashed >= 980, (duals, crashed)


def _layout(lp: LinearProgram):
    """The standard form as _Setup's docstring lays it out, built row by
    row: (cols, rhs, id_col, arts).  No row is negated.  The program's
    columns come first, then one slack (+1 on a '<=' row) or surplus (-1
    on a '>=' row) column per inequality in row order, then one artificial
    per row that is neither '<=' with a nonnegative right-hand side nor '>='
    with a negative one: +1, or -1 where the right-hand side is negative.
    The slack/artificial basis takes a row's slack or surplus where the row
    is one of those two kinds, and its artificial otherwise."""
    rows = [dict(coeffs) for coeffs, _, _ in lp.rows]
    rels = [rel for _, rel, _ in lp.rows]
    rhs = [b for _, _, b in lp.rows]
    cols = [[(i, row[j]) for i, row in enumerate(rows) if j in row] for j in range(lp.num_vars)]
    inequalities = [i for i, rel in enumerate(rels) if rel != EQ]
    slack = {i: len(cols) + k for k, i in enumerate(inequalities)}
    cols += [[(i, 1 if rels[i] == LE else -1)] for i in inequalities]
    ready = {i for i in inequalities if (rels[i] == LE and rhs[i] >= 0)
             or (rels[i] == GE and rhs[i] < 0)}
    art = {i: len(cols) + k for k, i in enumerate(i for i in range(len(rels)) if i not in ready)}
    cols += [[(i, -1 if rhs[i] < 0 else 1)] for i in art]
    id_col = [slack[i] if i in ready else art[i] for i in range(len(rels))]
    return cols, rhs, id_col, list(art.values())


# sha256 of test_standard_form_follows_its_layout's outcomes from the
# slack/artificial basis, one line each: status, then value, primal and dual.
# Without numpy every solve starts there, so Bland's rule picks the optimal
# vertex whose weights bounds prints.
COLD_OUTCOMES_SHA256 = "e9f2612d19a1d043747d1ca182dfaeb3578c82cd2f5097b9421c806f524d640e"


def test_standard_form_follows_its_layout(rng):
    """_standardize builds exactly the column table its docstring lays out.
    From the float proposal, from the slack/artificial basis and from a
    seeded random basis the exact simplex reaches one status and value,
    every optimum passes the rational certificate check, and on every fifth
    seeded program status and value are the vertex oracle's.  The outcomes
    from the slack/artificial basis are pinned."""
    lps = [BEALE, REPEATED]
    lps += [build_shannon_lp(g) for g in (Graph.cycle(5), Graph.path(5), Graph.complete(5))]
    lps += [_random_lp(rng) for _ in range(1400)] + [_random_wide_lp(rng) for _ in range(1400)]
    lps += [_entropy_dual(g, closure_map(g), automorphisms(g))[0]
            for g in (Graph.cycle(5), Graph.cycle(7), g1())]
    lps += [build_fractional_cover_lp(g)[0] for n in range(1, 7) for g in isomorphism_classes(n)]
    statuses = set()
    cold = []
    for k, lp in enumerate(lps):
        s = _standardize(lp)
        cols = [list(s.column(j)) for j in range(s.ncols)]
        assert (cols, s.rhs, s.id_col, s.arts) == _layout(lp), lp.rows
        anywhere = [rng.randrange(s.ncols) for _ in s.rhs]
        sols = [_simplex(s, basis) for basis in (_float_basis(s) or s.id_col, s.id_col, anywhere)]
        for sol in sols:
            if sol.status == OPTIMAL:
                assert rational_verify_certificates(lp, sol) == (True, "ok"), lp.rows
        outcomes = {(sol.status, sol.objective) for sol in sols}
        assert len(outcomes) == 1, lp.rows
        if k % 5 == 0 and lp.num_vars <= 4:
            assert outcomes == {lp_vertex_solve(lp)}, lp.rows
        statuses |= {status for status, _ in outcomes}
        sol = sols[1]
        values = [] if sol.objective is None else [sol.objective, *sol.primal, *sol.dual]
        cold.append(" ".join([sol.status, *map(rat_str, values)]) + "\n")
    assert len(lps) >= 3000 and statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert hashlib.sha256("".join(cold).encode()).hexdigest() == COLD_OUTCOMES_SHA256


def _as_columns(lp: LinearProgram):
    """lp's table rebuilt from its row view, for from_columns: column j's
    rows, ascending, and its entries, read off the rows one by one."""
    cols = [[] for _ in range(lp.num_vars)]
    for i, (coeffs, _, _) in enumerate(lp.rows):
        for j, c in coeffs:
            cols[j].append((i, c))
    start = [0]
    for col in cols:
        start.append(start[-1] + len(col))
    return (start, [i for col in cols for i, _ in col], [c for col in cols for _, c in col])


def _column_built(lp: LinearProgram) -> LinearProgram:
    return LinearProgram.from_columns(lp.sense, lp.objective, _as_columns(lp),
                                      [rel for _, rel, _ in lp.rows], [b for _, _, b in lp.rows])


_SETUP_FIELDS = ("maximize", "cost", "rhs", "start", "index", "value", "id_col", "arts")


def test_column_and_row_built_programs_agree(rng):
    """A program stated by its columns and the same program stated by its
    rows read back the same rows, standardize to the same column table,
    solve to the same outcome and get the same certificate verdicts, on
    seeded random integer programs with right-hand sides of both signs,
    rows with no entry and every relation."""
    lps = [_random_lp(rng) for _ in range(150)] + [_random_wide_lp(rng) for _ in range(150)]
    lps.append(LinearProgram(3, "max", [1, 0, 2], [({}, LE, 1), ({0: 1, 2: 3}, GE, -2),
                                                    ({1: 0}, EQ, 0), ({0: 2, 2: 1}, LE, 5)]))
    optimal = 0
    for lp in lps:
        by_columns = _column_built(lp)
        assert by_columns.rows == lp.rows
        a, b = _standardize(lp), _standardize(by_columns)
        assert [getattr(a, f) for f in _SETUP_FIELDS] == [getattr(b, f) for f in _SETUP_FIELDS]
        sol, other = solve(lp), solve(by_columns)
        assert (sol.status, sol.objective, sol.primal, sol.dual) == (
            other.status, other.objective, other.primal, other.dual), lp.rows
        if sol.status != OPTIMAL:
            continue
        optimal += 1
        for candidate in [sol, *_corrupted(rng, lp, sol)]:
            assert verify_certificates(lp, candidate) == verify_certificates(by_columns, candidate)
    assert optimal >= 100, optimal


def test_column_built_certificates_reject_one_changed_entry(rng):
    """On programs the package states column by column, the entropy duals
    and the covering LPs, and on seeded programs handed over as columns,
    verify_certificates accepts the solver's certificates and rejects them
    with one entry changed: x on a variable with a nonzero cost, y on a row
    with a nonzero right-hand side, or the reported objective.  Each
    verdict is the rational check's on the program's rows."""
    lps = [_entropy_dual(g, closure_map(g), automorphisms(g))[0]
           for g in (Graph.cycle(5), Graph.cycle(7), g1(), Graph.path(5))]
    lps += [build_fractional_cover_lp(g)[0] for g in (Graph.cycle(5), g1(), Graph.complete(4))]
    lps += [_column_built(_random_lp(rng)) for _ in range(100)]
    lps += [_column_built(_random_wide_lp(rng)) for _ in range(150)]
    checked = 0
    for lp in lps:
        sol = solve(lp)
        if sol.status != OPTIMAL:
            continue
        assert verify_certificates(lp, sol) == (True, "ok")
        x, y = list(sol.primal), list(sol.dual)
        costly = [j for j, c in enumerate(lp.objective) if c]
        loaded = [i for i, b in enumerate(lp.rhs) if b]
        changed = [LpSolution(OPTIMAL, sol.objective + rat(1, 5), x, y)]
        if costly:
            j = rng.choice(costly)
            changed.append(LpSolution(OPTIMAL, sol.objective,
                                      x[:j] + [x[j] + rng.choice([-1, 1])] + x[j + 1:], y))
        if loaded:
            i = rng.choice(loaded)
            changed.append(LpSolution(OPTIMAL, sol.objective, x,
                                      y[:i] + [y[i] + rng.choice([-1, 1]) * rat(1, 2)] + y[i + 1:]))
        for bad in changed:
            verdict = verify_certificates(lp, bad)
            assert not verdict[0], lp.rows
            assert verdict == rational_verify_certificates(lp, bad)
        checked += 1
    assert checked >= 80, checked


def test_column_path_refuses_what_the_row_path_refuses():
    """from_columns refuses, naming the column or row, every entry the row
    constructor refuses (a coefficient, right-hand side or objective entry
    that is not an int, an unknown relation, a row index out of range), and
    also a column whose row indices do not rise, a stored zero and a start
    list that does not rise from 0 to the table's end."""
    def columns(index=(0, 1, 1), value=(1, 2, 3), start=(0, 2, 3)):
        return list(start), list(index), list(value)

    good = LinearProgram.from_columns("max", [1, 1], columns(), [LE, GE], [4, 1])
    assert good.rows == ((((0, 1),), LE, 4), (((0, 2), (1, 3)), GE, 1))
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(LpError, match="row 0"):
            LinearProgram(2, "max", [1, 1], [({0: bad}, LE, 4)])
        with pytest.raises(LpError, match=r"column 1: coefficient .* is not an int"):
            LinearProgram.from_columns("max", [1, 1], columns(value=(1, 2, bad)), [LE, GE], [4, 1])
        with pytest.raises(LpError, match="row 1: right-hand side"):
            LinearProgram(2, "max", [1, 1], [({0: 1}, LE, 4), ({0: 1}, GE, bad)])
        with pytest.raises(LpError, match="row 1: right-hand side"):
            LinearProgram.from_columns("max", [1, 1], columns(), [LE, GE], [4, bad])
        for path in (lambda obj: LinearProgram(2, "max", obj, [({0: 1}, LE, 4)]),
                     lambda obj: LinearProgram.from_columns("max", obj, columns(), [LE, GE],
                                                            [4, 1])):
            with pytest.raises(LpError, match="objective"):
                path([1, bad])
    with pytest.raises(LpError, match="row 1 has unknown relation"):
        LinearProgram(2, "max", [1, 1], [({0: 1}, LE, 4), ({0: 1}, "<", 1)])
    with pytest.raises(LpError, match="row 1 has unknown relation"):
        LinearProgram.from_columns("max", [1, 1], columns(), [LE, "<"], [4, 1])
    with pytest.raises(LpError, match="out of range"):
        LinearProgram(2, "max", [1, 1], [({2: 1}, LE, 4)])
    for index in ((0, 2, 1), (0, -1, 1)):
        with pytest.raises(LpError, match=r"column 0: row index -?\d out of range"):
            LinearProgram.from_columns("max", [1, 1], columns(index=index), [LE, GE], [4, 1])
    for index in ((1, 0, 1), (1, 1, 1)):
        with pytest.raises(LpError, match="column 0: row indices not ascending"):
            LinearProgram.from_columns("max", [1, 1], columns(index=index), [LE, GE], [4, 1])
    with pytest.raises(LpError, match="column 1: stored zero"):
        LinearProgram.from_columns("max", [1, 1], columns(value=(1, 2, 0)), [LE, GE], [4, 1])
    for start in ((0, 2), (1, 2, 3), (0, 3, 2, 3), (0, 2, 4)):
        with pytest.raises(LpError, match="start"):
            LinearProgram.from_columns("max", [1, 1], columns(start=start), [LE, GE], [4, 1])
    with pytest.raises(LpError, match="2 relations but 1 right-hand sides"):
        LinearProgram.from_columns("max", [1, 1], columns(), [LE, GE], [4])
    with pytest.raises(LpError, match="sense"):
        LinearProgram.from_columns("maximize", [1, 1], columns(), [LE, GE], [4, 1])
