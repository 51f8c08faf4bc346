import pytest

from graphentropy.bounds import build_fractional_cover_lp, build_shannon_lp
from graphentropy.graphs import Graph, mask_of
from graphentropy.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpError,
    _float_basis,
    _simplex,
    _standardize,
    solve,
    verify_certificates,
)
from graphentropy.rationals import rat

from _oracles import lp_vertex_solve
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
        [({0: 1, 1: 1}, LE, rat("3/2")), ({0: 1}, LE, 1), ({1: 1}, LE, 1)],
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


def test_solver_determinism(rng):
    for _ in range(30):
        lp = _random_lp(rng)
        a = solve(lp, check=False)
        b = solve(lp, check=False)
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


def test_float_guided_path_agrees_with_pure_exact(rng):
    """The one exact simplex reaches the same status and value from the float
    proposal (warm), from the slack/artificial basis (cold) and from an
    arbitrary, possibly singular, choice of columns."""
    lps = [build_shannon_lp(g) for g in (Graph.cycle(5), Graph.path(5), Graph.complete(5))]
    lps += [_random_lp(rng) for _ in range(250)]
    proposed = 0
    for lp in lps:
        s = _standardize(lp)
        proposal = _float_basis(s)
        proposed += proposal is not None
        warm = _simplex(s, proposal or s.id_col)
        cold = _simplex(s, s.id_col)
        anywhere = _simplex(s, [rng.randrange(s.ncols) for _ in s.body])
        assert warm.status == cold.status == anywhere.status
        assert warm.objective == cold.objective == anywhere.objective
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
