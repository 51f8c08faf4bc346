"""Exact simplex for integer linear programs, with self-checking certificates.

One exact simplex: revised primal pivots under Bland's rule (the entering
column and, on ratio ties, the leaving basic column are the lowest-indexed
candidates), so runs are deterministic and never cycle.  It starts from a
basis proposed by a fast floating-point simplex: the basis is factored and
priced exactly, and returned at once when it is optimal.  A primal feasible
basis continues with exact pivots; any other restarts exact phase 1 from the
slack/artificial basis.  The exact side keeps no tableau: each basis is
factored once, by forward fraction-free elimination (Bareiss, Math. Comp.
1968), and that one factorization solves B z = b for the basic values,
B^T w = c_B for the duals and B d = A_j for an entering column.
Values never depend on the proposal, only which optimal vertex is reported
when there are several.  Every optimal solve carries a primal assignment
and a dual vector; verify_certificates re-derives feasibility, sign
conditions and the strong-duality equation from scratch, so no float and no
solver bug can silently produce a wrong bound.

The float simplex is revised: it keeps a dense B^-1 and reads the
constraint matrix through its nonzeros.  It prices by steepest edge,
entering the column whose edge gains most per unit of distance moved, not
per unit of the entering variable, and its ratio test is Harris's: of the
rows that block within a small tolerance, the one with the largest pivot
leaves.  It starts from the slack/artificial basis, where the edge lengths
are known exactly, unless the caller names crash columns, such as the
dual columns of rows tight at a known good point.  Then it starts from a
triangular crash basis over them, and its edge lengths are only
approximate.  The entropy duals are highly degenerate.  Dantzig's rule spent
most of its float pivots on zero-length steps there and often stopped at a
singular or infeasible basis.  A dense tableau with the plain minimum-ratio
test ran phase 2 to its iteration limit on asymmetric 8- and 9-vertex
duals.  Either left the exact simplex long pivoting.

Every program is an integer program over nonnegative variables: each
coefficient, right-hand side and objective entry is an int, and each row
has relation '<=', '=' or '>='.  Every LP the package builds is of this
kind, so the exact side needs no rational arithmetic.  Each exact vector,
from the basic values through the certificates, is held as Python ints
over one positive common denominator (rationals.Scaled): basis systems are
solved that way, ratio tests compare by cross-multiplication, and
verify_certificates checks the solver's ints as they are.  No rational is
made inside solve; LpSolution makes them when its objective, primal or
dual is read.

A LinearProgram is stored as one flat column table plus each row's
relation and right-hand side.  A program given by rows is laid out as
columns once, in the pass that checks them; the covering LP and the
entropy duals are generated column by column and handed over as the table
itself (from_columns), so neither is transposed at all.  Both simplexes
read one standard form (_Setup): that table, followed by the slack,
surplus and artificial columns.  Basis matrices, pricing, the float run's
sparse matrix and verify_certificates all read the table; the rows are
derived from it only when a caller reads them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from functools import cache
from itertools import accumulate, chain, compress, count, islice
from math import gcd
from operator import ge, gt, le, lt, mul, sub

from .rationals import Scaled, rat_str

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(ValueError):
    """Malformed program or certificate."""


class LinearProgram:
    """Immutable integer LP: optimize objective . x subject to rows, x >= 0.

    objective is a tuple of num_vars ints.  The program is stored in the form
    the solver reads (_Setup): one column table, column j's entries
    (index[p], value[p]) for p in range(start[j], start[j + 1]) with row
    indices ascending and no stored zero, plus one relation (rels) and one
    int right-hand side (rhs) per row.

    A program is given row by row, as LinearProgram(num_vars, sense,
    objective, rows) with each row ({index: int}, relation, int), and laid
    out as columns in the pass that checks its rows; or column by column,
    by from_columns, as the covering LP and the entropy duals are generated.
    Either way it is laid out once, and any entry that is not an int raises
    LpError.  rows is derived from the table when first read: each row as
    (coeffs, relation, rhs), coeffs the nonzero (index, coeff) pairs in
    index order."""

    __slots__ = ("num_vars", "sense", "objective", "rels", "rhs", "_columns", "_rows")

    def __init__(self, num_vars: int, sense: str, objective, rows: Iterable[tuple] = ()):
        _check_sense(sense)
        if num_vars < 0:
            raise LpError("num_vars must be nonnegative")
        obj = _as_dense(objective, num_vars)
        # at[j] and values[j]: column j's rows, ascending, and its entries.
        at = [[] for _ in range(num_vars)]
        values = [[] for _ in range(num_vars)]
        rels, rhs_of = [], []
        for k, row in enumerate(rows):
            try:
                coeffs, rel, rhs = row
            except (TypeError, ValueError):
                raise LpError(f"row {k} must be (coeffs, relation, rhs)") from None
            if rel not in _RELS:
                raise LpError(f"row {k} has unknown relation {rel!r}")
            # Programs hold hundreds of rows, nearly all plain dicts: the exact
            # type test spares them the slower Mapping check, and the sorted
            # ends bound every index.
            if type(coeffs) is not dict and not isinstance(coeffs, Mapping):
                raise LpError(f"row {k}: coefficients must be an {{index: int}} dict")
            items = sorted(coeffs.items())
            if items and not (0 <= items[0][0] and items[-1][0] < num_vars):
                j = items[0][0] if items[0][0] < 0 else items[-1][0]
                raise LpError(f"row {k}: variable index {j} out of range")
            if type(rhs) is not int:
                raise LpError(f"row {k}: right-hand side {rhs!r} is not an int")
            for j, a in items:
                if type(a) is not int:
                    raise LpError(f"row {k}: coefficient {a!r} is not an int")
                if a:
                    at[j].append(k)
                    values[j].append(a)
            rels.append(rel)
            rhs_of.append(rhs)
        self._store(sense, obj, (list(accumulate(map(len, at), initial=0)),
                                 list(chain.from_iterable(at)),
                                 list(chain.from_iterable(values))), rels, rhs_of)

    @classmethod
    def from_columns(cls, sense: str, objective, columns, rels, rhs) -> LinearProgram:
        """The program with the given column table, columns = (start, index,
        value) as the class lays it out, one column per objective entry,
        and the relation and right-hand side of each row.  The lists are
        kept, not copied.  Refused with LpError, like a row the constructor
        refuses: an entry or right-hand side that is not an int, an unknown
        relation, a row index out of range or not ascending within its
        column, and a stored zero."""
        _check_sense(sense)
        start, index, value = columns
        if not (start and start[0] == 0 and start[-1] == len(index) == len(value)
                and {*map(type, start)} == {int} and all(map(le, start, islice(start, 1, None)))):
            raise LpError("columns: start must rise from 0 to one past the last entry")
        num_vars = len(start) - 1
        obj = _as_dense(objective, num_vars)
        m = len(rels)
        if len(rhs) != m:
            raise LpError(f"{m} relations but {len(rhs)} right-hand sides")
        if not all(map(_RELS.__contains__, rels)) or {*map(type, rhs)} - {int}:
            for k, (rel, b) in enumerate(zip(rels, rhs)):
                if rel not in _RELS:
                    raise LpError(f"row {k} has unknown relation {rel!r}")
                if type(b) is not int:
                    raise LpError(f"row {k}: right-hand side {b!r} is not an int")
        # Each check runs over the whole table at C speed; the loop that
        # names the first offending entry runs only when one fails.  An
        # array of unsigned ints takes ints from 0 up, and nothing else.
        try:
            array("Q", index)
            in_range = max(index, default=-1) < m
        except (TypeError, OverflowError):
            in_range = False
        if not in_range:
            p = next(p for p, i in enumerate(index) if not isinstance(i, int) or not 0 <= i < m)
            raise LpError(f"column {bisect_right(start, p) - 1}: row index {index[p]!r} "
                          "out of range")
        # A row index not above its predecessor is allowed only where a
        # column starts.
        falls = set(compress(range(1, len(index)), map(ge, index, islice(index, 1, None))))
        if falls - set(start):
            p = min(falls - set(start))
            raise LpError(f"column {bisect_right(start, p) - 1}: row indices not ascending")
        if value and ({*map(type, value)} != {int} or 0 in value):
            p = next(p for p, a in enumerate(value) if type(a) is not int or not a)
            j = bisect_right(start, p) - 1
            if type(value[p]) is int:
                raise LpError(f"column {j}: stored zero")
            raise LpError(f"column {j}: coefficient {value[p]!r} is not an int")
        lp = cls.__new__(cls)
        lp._store(sense, obj, (start, index, value), rels, rhs)
        return lp

    def _store(self, sense, objective, columns, rels, rhs) -> None:
        object.__setattr__(self, "num_vars", len(objective))
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rels", tuple(rels))
        object.__setattr__(self, "rhs", tuple(rhs))
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_rows", None)

    @property
    def rows(self) -> tuple:
        """The rows as (coeffs, relation, rhs), coeffs the nonzero (index,
        coeff) pairs in index order; derived from the column table once."""
        rows = self._rows
        if rows is None:
            start, index, value = self._columns
            coeffs = [[] for _ in self.rhs]
            for j in range(self.num_vars):
                for p in range(start[j], start[j + 1]):
                    coeffs[index[p]].append((j, value[p]))
            rows = tuple(zip(map(tuple, coeffs), self.rels, self.rhs))
            object.__setattr__(self, "_rows", rows)
        return rows

    def __setattr__(self, name, value):
        raise AttributeError("LinearProgram is immutable")


class LpSolution:
    """Outcome of a solve: status plus exact certificates when optimal.

    The certificates are Scaled vectors, Python ints over one positive
    denominator each: value holds the objective as its one entry, x the
    primal point and y the row duals.  The solver hands them over in that
    form and verify_certificates checks them in it; objective, primal and
    dual make the Rationals when they are read.  Given as rationals or ints,
    as a hand-built solution is, each is put over its least common
    denominator."""

    __slots__ = ("status", "value", "x", "y")

    def __init__(self, status, objective=None, primal=None, dual=None):
        self.status = status
        self.value = None if objective is None else Scaled.of(
            objective if type(objective) is Scaled else (objective,))
        self.x = None if primal is None else Scaled.of(primal)
        self.y = None if dual is None else Scaled.of(dual)

    @property
    def objective(self):
        return None if self.value is None else self.value[0]

    @property
    def primal(self):
        return None if self.x is None else tuple(self.x)

    @property
    def dual(self):
        return None if self.y is None else tuple(self.y)

    def __repr__(self):
        if self.status != OPTIMAL:
            return f"LpSolution({self.status})"
        return f"LpSolution(optimal, objective={rat_str(self.objective)})"


def _check_sense(sense) -> None:
    if sense not in ("max", "min"):
        raise LpError(f"sense must be 'max' or 'min', got {sense!r}")


def _as_dense(coeffs, num_vars):
    """The objective, given densely or as {index: int}, as a tuple of ints."""
    if isinstance(coeffs, Mapping):
        dense = [0] * num_vars
        for j, c in coeffs.items():
            if not 0 <= j < num_vars:
                raise LpError(f"objective: variable index {j} out of range")
            dense[j] = c
    else:
        dense = list(coeffs)
        if len(dense) != num_vars:
            raise LpError(f"objective: expected {num_vars} coefficients, got {len(dense)}")
    if {*map(type, dense)} - {int}:
        bad = next(c for c in dense if type(c) is not int)
        raise LpError(f"objective: coefficient {bad!r} is not an int")
    return tuple(dense)


# -- solver -------------------------------------------------------------------

def solve(lp: LinearProgram, crash: Iterable[int] = ()) -> LpSolution:
    """Exact solve; an optimal outcome is rechecked by verify_certificates.

    crash lists structural columns that an optimal basis is likely to hold,
    such as the dual columns of rows tight at a known good point; the float
    run starts from a crash basis over them (_float_basis).  By default it
    starts from the slack/artificial basis."""
    s = _standardize(lp)
    sol = _simplex(s, _float_basis(s, crash) or s.id_col)
    if sol.status == OPTIMAL:
        ok, why = verify_certificates(lp, sol)
        if not ok:
            raise LpError(f"internal certificate check failed: {why}")
    return sol


class _Setup:
    """Standard form shared by the exact and float paths, held once, as one
    flat column table, with internal max-sense costs.

    rhs holds the program's own right-hand sides: no row is negated, so
    each row's dual is read off as it is.  Column j's entries are
    (index[p], value[p]) for p in range(start[j], start[j + 1]), row indices
    ascending: the program's columns first, then one slack (+1 on a '<='
    row) or surplus (-1 on a '>=' row) column per inequality, in row order,
    then one artificial per row that is neither '<=' with rhs >= 0 nor '>='
    with rhs < 0: +1, or -1 where rhs < 0.  id_col[i] is row i's column in
    the slack/artificial basis, its slack or surplus where the row is one of
    those two kinds and its artificial otherwise, so that each starts at
    |rhs[i]|; arts lists the artificials.  cost holds the structural costs.
    """

    __slots__ = ("lp", "maximize", "cost", "rhs", "start", "index", "value", "id_col", "arts")

    @property
    def ncols(self) -> int:
        return len(self.start) - 1

    def column(self, j: int):
        """Column j's (row, int) entries, in row order."""
        a, b = self.start[j], self.start[j + 1]
        return zip(self.index[a:b], self.value[a:b])


def _standardize(lp: LinearProgram) -> _Setup:
    s = _Setup()
    s.lp = lp
    s.maximize = lp.sense == "max"
    s.cost = list(lp.objective) if s.maximize else [-c for c in lp.objective]
    s.rhs = list(lp.rhs)
    # The program's own column table, then one entry per slack, surplus or
    # artificial column.
    start, index, value = lp._columns
    ncols = lp.num_vars
    extra_index, extra_value = [], []
    s.id_col = [-1] * len(s.rhs)
    for i, (rel, b) in enumerate(zip(lp.rels, s.rhs)):
        if rel != EQ:
            # A slack starts at b, a surplus at -b.
            if (rel == LE) == (b >= 0):
                s.id_col[i] = ncols + len(extra_index)
            extra_index.append(i)
            extra_value.append(1 if rel == LE else -1)
    s.arts = []
    for i, b in enumerate(s.rhs):
        if s.id_col[i] < 0:
            s.id_col[i] = ncols + len(extra_index)
            s.arts.append(ncols + len(extra_index))
            extra_index.append(i)
            extra_value.append(-1 if b < 0 else 1)
    s.start = start + list(range(start[-1] + 1, start[-1] + 1 + len(extra_index)))
    s.index = index + extra_index
    s.value = value + extra_value
    return s


def _simplex(s: _Setup, basis) -> LpSolution:
    """The exact simplex, started from any basis (one column index per row).

    The basis is first factored, once, and priced exactly from that one
    factorization; a column the others make dependent gives way to the
    identity column of a row they leave without a pivot, and the basis is
    factored again.  An optimal basis is returned at once, and a primal
    feasible one continues with revised primal pivots under Bland's rule.
    Any other basis is dropped for phase 1 from the slack/artificial basis,
    factored again only when it is not the basis just factored.
    Artificials never re-enter; one still basic, at zero, in phase 2 stays
    at zero.
    """
    arts = frozenset(s.arts)
    basis, z, lu = _basic_values(s, basis)
    if any(v < 0 for v in z.ints) or any(z.ints[k] for k, j in enumerate(basis) if j in arts):
        if basis != s.id_col:
            basis, z, lu = _basic_values(s, s.id_col)
        done = _phase1(s, basis, z, lu, arts)
        if done is None:
            return LpSolution(INFEASIBLE)
        z, lu = done
    done = _optimize(s, basis, z, lu, s.cost + [0] * (s.ncols - s.lp.num_vars), arts)
    if done is None:
        return LpSolution(UNBOUNDED)
    z, _, w, den = done
    return _solution(s, basis, z, w, den)


def _phase1(s: _Setup, basis, z, lu, arts):
    """Pivots from the slack/artificial basis, with its values z and
    factorization lu, at cost -1 per artificial, with basis updated in
    place.  Returns the final basis's values and factorization (z, lu), with
    every artificial at zero, or None when the program is infeasible."""
    z, lu, _, _ = _optimize(s, basis, z, lu, [-1 if j in arts else 0 for j in range(s.ncols)],
                            frozenset())
    if any(z.ints[k] for k, j in enumerate(basis) if j in arts):
        return None
    return z, lu


def _optimize(s: _Setup, basis, z, lu, cost, fixed):
    """Primal pivots from a primal feasible basis with values z, factored as
    lu, until it prices out, with basis updated in place.  cost is one int
    per column.  One factorization per basis serves its values, its duals
    and, when a column enters, its edge.  Returns the optimal basis's values,
    factorization and integer duals over their denominator (z, lu, w, den),
    or None when the program is unbounded."""
    while True:
        w, den = _solve_transposed(lu, [cost[j] for j in basis])
        j = _prices_out(s, cost, w, den)
        if j is None:
            return z, lu, w, den
        if not _exchange(s, basis, z, lu, j, fixed):
            return None
        lu = _factor(_basis_rows(s, basis))
        z = Scaled(*_solve(lu, s.rhs))


def _basic_values(s: _Setup, basis):
    """Exact basic values z with B z = b, a Scaled vector, the basis they
    belong to and its factorization: each dependent column is swapped for
    the identity column of the row it leaves without a pivot, which makes B
    nonsingular."""
    basis = list(basis)
    lu = _factor(_basis_rows(s, basis))
    if lu[2]:  # the dependent pairs
        for k, i in lu[2]:
            basis[k] = s.id_col[i]
        lu = _factor(_basis_rows(s, basis))
    return basis, Scaled(*_solve(lu, s.rhs)), lu


def _basis_rows(s: _Setup, basis):
    """Rows of the basis matrix, as {position in basis: int}."""
    rows = [{} for _ in s.rhs]
    start, index, value = s.start, s.index, s.value
    for k, j in enumerate(basis):
        for p in range(start[j], start[j + 1]):
            rows[index[p]][k] = value[p]
    return rows


def _prices_out(s: _Setup, cost, w, den: int):
    """Bland's entering column: the lowest-indexed column before the first
    artificial with a positive reduced cost against the duals w/den, w
    integers and den positive; None when the basis prices out.  Basic
    columns price to exactly zero, and artificials are never priced."""
    start, index, value = s.start, s.index, s.value
    for j in range(s.arts[0] if s.arts else s.ncols):
        red = cost[j] * den
        for p in range(start[j], start[j + 1]):
            red -= w[index[p]] * value[p]
        if red > 0:
            return j
    return None


def _exchange(s: _Setup, basis, z, lu, j: int, fixed) -> bool:
    """One pivot bringing column j in: solve B d = A_j over the basis's
    factorization lu, pick the leaving column by the ratio test, on ties
    the lowest-indexed one, and put j in its place.  A basic column in fixed
    (an artificial at zero) blocks, at ratio 0, any step with a nonzero
    entry in its row.  False when nothing blocks: the program is unbounded
    along the edge."""
    a = [0] * len(s.rhs)
    for i, v in s.column(j):
        a[i] = v
    # d is a positive multiple of the edge and z.ints of the basic values,
    # so the ratios z_k / d_k are in the true ratios' order; each is kept as
    # its numerator and positive denominator and compared across.
    d, _ = _solve(lu, a)
    zs = z.ints
    leave, top, bottom = -1, 0, 0
    for k, dk in enumerate(d):
        if basis[k] in fixed:
            if not dk:
                continue
            num, dd = 0, 1  # the artificial is at zero
        elif dk > 0:
            num, dd = zs[k], dk
        else:
            continue
        if leave < 0 or num * bottom < top * dd or (
                num * bottom == top * dd and basis[k] < basis[leave]):
            leave, top, bottom = k, num, dd
    if leave < 0:
        return False
    basis[leave] = j
    return True


def _solution(s: _Setup, basis, z, w, den: int) -> LpSolution:
    """Optimal outcome from an optimal basis, its basic values z and its row
    duals w/den, all kept as ints over their denominators."""
    lp = s.lp
    xs = [0] * lp.num_vars
    for k, j in enumerate(basis):
        if j < lp.num_vars:
            xs[j] = z.ints[k]
    ys = w if s.maximize else [-wi for wi in w]
    value = sum(c * xs[j] for j, c in enumerate(lp.objective) if c)
    return LpSolution(OPTIMAL, Scaled([value], z.den), Scaled(xs, z.den), Scaled(ys, den))


# -- float proposal -------------------------------------------------------------

# Reduced costs and entries of B^-1 A_j at or below _TOL count as zero.
_TOL = 1e-9
# The ratio test lets basic values pass zero by up to _HARRIS, so that among
# nearly tied rows it can pivot on the largest entry instead of a tiny one.
_HARRIS = 1e-9


@cache
def _numpy():
    """The numpy module, imported on the first float proposal, or None when
    it is missing.  Commands that solve no LP never pay its import time:
    guess, reduce, minimal-check, and bounds where n - kappa_f = tau."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _crash_basis(s: _Setup, candidates: Iterable[int]):
    """A triangular crash basis (Bixby, ORSA J. Computing 1992), one column
    per row.  Each row with a nonzero right-hand side keeps its slack or
    artificial.  The candidate columns, fewest nonzeros first, are then
    passed over until a pass adds none or every row is covered: a column
    enters when exactly one of its nonzero rows is still uncovered, and
    covers that row.  Every row left over keeps its slack or artificial.

    Ordered by when their rows were covered, the columns form a triangular
    matrix with a nonzero diagonal, so the basis is never singular.  It is
    also phase-1 feasible: back substitution gives each row's slack or
    artificial the size of its right-hand side and every other column
    zero.  With no candidates it is the slack/artificial basis."""
    basis = list(s.id_col)
    covered = [b != 0 for b in s.rhs]
    uncovered = covered.count(False)
    start, index = s.start, s.index
    # Sorted by a builtin key, so that no Python function runs per candidate.
    waiting = sorted(candidates, key=list(map(sub, islice(start, 1, None), start)).__getitem__)
    while uncovered:
        left = []
        for j in waiting:
            free = [i for i in index[start[j]:start[j + 1]] if not covered[i]]
            if len(free) == 1:
                basis[free[0]] = j
                covered[free[0]] = True
                uncovered -= 1
                if not uncovered:
                    break
            elif free:
                left.append(j)
        if len(left) == len(waiting):
            break
        waiting = left
    return basis


def _float_basis(s: _Setup, crash: Iterable[int] = ()):
    """Basis proposed by a floating-point two-phase revised simplex, or None
    when numpy is missing or the float run fails.  Only a proposal: _simplex
    checks it exactly.

    The run starts from _crash_basis(s, crash), the slack/artificial basis
    when crash is empty, and inverts it once.  Phase 1 first prices only
    the crash columns, and every column once none of those prices in: when
    the crash columns are the dual columns of rows tight at an optimal
    point, complementary slackness puts an optimal basis among them, and a
    basis made of them alone has that point as its duals, so phase 2 finds
    it optimal at once.  Phase 1 from the slack/artificial basis would
    instead make at least one pivot per structural column of the optimal
    basis.

    The run keeps a dense B^-1, updated by one rank-1 step per pivot, and
    reads A through its nonzeros, so A^T v is one bincount.  Reduced costs
    are updated from the pivot row.  Both phases price by steepest edge
    (Goldfarb and Reid, Math. Programming 1977; Forrest and Goldfarb, Math.
    Programming 1992): among columns with reduced cost red_j > _TOL, enter
    the one maximising red_j^2 / gamma_j, with gamma_j carried by the
    Goldfarb-Reid update from the reference weights 1 + |A_j|^2.  From the
    slack/artificial basis these are the squared edge lengths
    1 + |B^-1 A_j|^2, kept exactly; from a crash basis they are only
    approximate, since exact ones would take B^-1 A in full.
    The leaving row comes from a two-pass Harris ratio test (Harris 1973;
    Huangfu and Hall, Math. Prog. Comp. 2018): the bound is the least
    (x_i + _HARRIS) / alpha_i over alpha_i > _TOL, and of the rows whose
    ratio is within it the one with the largest alpha_i leaves.  Basic
    values are clamped at zero.  An entropy dual has one nonzero right-hand
    side, so nearly every phase-1 pivot is degenerate.  Dantzig's largest
    red_j made three times as many pivots on the entropy duals of up to 8
    vertices.  A dense tableau with the plain minimum-ratio test ran phase 2
    to its iteration limit on asymmetric 8- and 9-vertex duals; the Harris
    test ends those runs."""
    np = _numpy() if s.rhs else None
    if np is None:
        return None
    m, ncols = len(s.rhs), s.ncols
    # The column table as arrays: A_j is ri, va over start[j]:start[j + 1].
    start = s.start
    ri, va = np.array(s.index, dtype=int), np.array(s.value, dtype=float)
    cj = np.repeat(np.arange(ncols), np.diff(start))

    def times_a(v):
        """A^T v."""
        return np.bincount(cj, v[ri] * va, ncols)

    crash = list(crash)
    bas = np.array(_crash_basis(s, crash))
    # pos[j] is column j's place in the basis, -1 when it is not basic.
    pos = np.full(ncols, -1)
    pos[bas] = np.arange(m)
    at = pos[cj]
    dense = np.zeros((m, m))
    dense[ri[at >= 0], at[at >= 0]] = va[at >= 0]
    # The slack/artificial basis is diagonal, +-1, and its inverse exact.
    binv = np.linalg.inv(dense)
    x = np.maximum(binv @ np.array(s.rhs, dtype=float), 0.0)
    gamma = 1.0 + np.bincount(cj, va * va, ncols)
    limit = 80 * m + 800

    def run(cost, priced) -> bool:
        """Pivots until none of the columns priced, an index array, prices
        in; False at the iteration limit or when nothing blocks an entering
        column."""
        red = cost - times_a(cost[bas] @ binv)
        for _ in range(limit):
            red[bas] = 0.0
            head = red[priced]
            score = np.where(head > _TOL, head * head / gamma[priced], -1.0)
            best = int(score.argmax())
            if score[best] < 0:
                return True
            q = int(priced[best])
            alpha = binv[:, ri[start[q]:start[q + 1]]] @ va[start[q]:start[q + 1]]
            ratio = np.divide(x + _HARRIS, alpha, out=np.full(m, np.inf), where=alpha > _TOL)
            bound = ratio[ratio.argmin()]
            if bound == np.inf:
                return False
            # Of the rows within the bound, the largest alpha leaves.
            p = int((alpha * (x <= bound * alpha)).argmax())
            ap = float(alpha[p])
            # row is the pivot row of B^-1 A over ap.
            pivot = binv[p] / ap
            row = times_a(pivot)
            kappa = times_a(alpha @ binv)
            # Goldfarb-Reid: gamma_j -= 2 row_j kappa_j - row_j^2 gamma_q,
            # kappa_j = A_j . B^-T alpha, floored at 1 + row_j^2.
            gq = 1.0 + float(alpha @ alpha)
            np.subtract(gamma, row * (2.0 * kappa - gq * row), out=gamma)
            np.maximum(gamma, 1.0 + row * row, out=gamma)
            red -= float(red[q]) * row
            step = float(x[p]) / ap
            if step:  # a degenerate pivot moves no basic value
                np.maximum(x - step * alpha, 0.0, out=x)
                x[p] = step
            np.subtract(binv, np.multiply.outer(alpha, pivot), out=binv)
            binv[p] = pivot
            bas[p] = q
        return False

    if s.arts:
        cost1 = np.zeros(ncols)
        cost1[s.arts[0]:] = -1.0
        if crash and not run(cost1, np.array(crash)):
            return None
        if not run(cost1, np.arange(ncols)) or cost1[bas] @ x < -1e-7:
            return None
    cost2 = np.zeros(ncols)
    cost2[:s.lp.num_vars] = s.cost
    if not run(cost2, np.arange(s.arts[0] if s.arts else ncols)):
        return None
    return bas.tolist()


def _factor(rows):
    """Factor a square integer matrix by forward fraction-free elimination.

    rows are sparse {column: int} maps without zero entries.  Column by
    column, the first row at or below the pivot position that holds the
    column is swapped up to it, and it eliminates the column from each row
    below that holds it: row i becomes (a*row_i - c*row_r)/g, with a and c
    the pivot entry and row i's entry over their gcd, and g the new row's
    content when a is not 1 (else 1).  Every row stays a nonzero integer
    multiple of the row rational elimination would hold, so the same
    entries are nonzero and the pivots and row swaps are those of rational
    elimination.

    Returns (steps, u, dependent).  steps records the row operations: per
    pivot position r, (r, swapped-in row, [(i, a, c, g), ...]).  u is the
    eliminated matrix, upper triangular when the matrix is nonsingular.
    dependent pairs each column that depends on the columns before it with
    a row those columns leave without a pivot; it is empty exactly when the
    matrix is nonsingular, and only then may _solve and _solve_transposed
    use the factorization.
    """
    n = len(rows)
    mat = list(rows)
    order = list(range(n))
    steps = []
    dependent = []
    r = 0
    for col in range(n):
        prow = next((i for i in range(r, n) if col in mat[i]), -1)
        if prow < 0:
            dependent.append(col)
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        order[r], order[prow] = order[prow], order[r]
        piv_row = mat[r]
        piv = piv_row[col]
        ops = []
        for i in range(r + 1, n):
            row = mat[i]
            f = row.get(col)
            if f is None:
                continue
            g = gcd(piv, f)
            a, c = piv // g, f // g
            new = row.copy() if a == 1 else {k: a * v for k, v in row.items()}
            for k, v in piv_row.items():
                t = new.get(k, 0) - c * v
                if t:
                    new[k] = t
                else:
                    del new[k]
            g = gcd(*new.values()) if a != 1 else 1
            if g > 1:
                new = {k: v // g for k, v in new.items()}
            else:
                g = 1  # a row eliminated to nothing has content 0
            mat[i] = new
            ops.append((i, a, c, g))
        steps.append((r, prow, ops))
        r += 1
    return steps, mat, list(zip(dependent, order[r:]))


def _solve(lu, b):
    """x with B x = b, b ints, for B factored by _factor and nonsingular:
    integers over one positive common denominator, (x, den).

    The recorded row operations are replayed on b, then U is back
    substituted.  A division that is not exact multiplies every value and
    the denominator by what it lacks."""
    steps, u, _ = lu
    y = list(b)
    den = 1
    for r, p, ops in steps:
        y[r], y[p] = y[p], y[r]
        yr = y[r]
        for i, a, c, g in ops:
            t = a * y[i] - c * yr
            if g != 1:
                if t % g:
                    f = g // gcd(t, g)
                    y = [v * f for v in y]
                    den *= f
                    yr *= f
                    t *= f
                t //= g
            y[i] = t
    x = [0] * len(u)
    for k in range(len(u) - 1, -1, -1):
        row = u[k]
        # x[k] is still 0, so the sum runs over the entries right of the pivot.
        t = y[k] - sum(v * x[j] for j, v in row.items())
        piv = row[k]
        if t % piv:
            f = abs(piv) // gcd(t, piv)
            x = [v * f for v in x]
            y = [v * f for v in y]
            den *= f
            t *= f
        x[k] = t // piv
    return x, den


def _solve_transposed(lu, cost):
    """w with B^T w = cost, cost ints, for B factored by _factor and
    nonsingular: integers over one positive common denominator, (w, den).

    With U = E B, E the recorded row operations, U^T v = cost is solved by
    forward substitution and w = E^T v by replaying the transposed
    operations in reverse.  Inexact divisions scale as in _solve."""
    steps, u, _ = lu
    n = len(u)
    acc = list(cost)
    v = [0] * n
    den = 1
    for j in range(n):
        t = acc[j]
        if not t:
            continue
        row = u[j]
        piv = row[j]
        if t % piv:
            f = abs(piv) // gcd(t, piv)
            acc = [x * f for x in acc]
            v = [x * f for x in v]
            den *= f
            t *= f
        t //= piv
        v[j] = t
        for k, x in row.items():
            acc[k] -= x * t
    # The transpose of row_i <- (a*row_i - c*row_r)/g sends v_i to a*v_i/g
    # and subtracts c*v_i/g from v_r.
    for r, p, ops in reversed(steps):
        for i, a, c, g in ops:
            t = v[i]
            if not t:
                continue
            if g != 1:
                if t % g:
                    f = g // gcd(t, g)
                    v = [x * f for x in v]
                    den *= f
                    t *= f
                t //= g
            v[i] = a * t
            v[r] -= c * t
        v[r], v[p] = v[p], v[r]
    return v, den


# -- certificates ---------------------------------------------------------------

def verify_certificates(lp: LinearProgram, sol: LpSolution) -> tuple[bool, str]:
    """First-principles optimality check: primal feasibility, dual sign and
    stationarity conditions, and exact equality of the two objectives.

    Evaluated in integers on the program's own column table, with x, y and
    the objective as the solution holds them, ints over a positive
    denominator each: dx for x and dy for y.  The rows are summed over the
    columns in the support of x, and stationarity is checked column by
    column."""
    if sol.status != OPTIMAL:
        return False, f"no certificates for status {sol.status}"
    x, y = sol.x, sol.y
    if x is None or y is None or len(x) != lp.num_vars or len(y) != len(lp.rhs):
        return False, "certificate vectors missing or mis-sized"
    xs, dx = x.ints, x.den
    for j in range(lp.num_vars):
        if xs[j] < 0:
            return False, f"primal variable {j} negative"
    start, index, value = lp._columns
    lhs = [0] * len(lp.rhs)
    for j, xj in enumerate(xs):
        if xj:
            for p in range(start[j], start[j + 1]):
                lhs[index[p]] += value[p] * xj
    for i, (rel, rhs) in enumerate(zip(lp.rels, lp.rhs)):
        rhs *= dx
        if rel == LE and lhs[i] > rhs:
            return False, f"row {i} violated"
        if rel == GE and lhs[i] < rhs:
            return False, f"row {i} violated"
        if rel == EQ and lhs[i] != rhs:
            return False, f"row {i} violated"
    maximize = lp.sense == "max"
    ys, dy = y.ints, y.den
    for i, rel in enumerate(lp.rels):
        if rel == LE and (ys[i] < 0 if maximize else ys[i] > 0):
            return False, f"dual sign wrong on row {i}"
        if rel == GE and (ys[i] > 0 if maximize else ys[i] < 0):
            return False, f"dual sign wrong on row {i}"
    # d[j] / dy is column j's dual combination: the difference of two prefix
    # sums of the entries times their rows' duals.
    pre = list(accumulate(map(mul, map(ys.__getitem__, index), value), initial=0))
    d = map(sub, map(pre.__getitem__, islice(start, 1, None)), map(pre.__getitem__, start))
    c = lp.objective
    j = next(compress(count(), map(lt if maximize else gt, d, [cj * dy for cj in c])), None)
    if j is not None:
        return False, f"dual stationarity fails on variable {j}"
    # The primal objective is primal / dx, the dual's dual / dy.
    primal = sum(cj * xj for cj, xj in zip(c, xs))
    dual = sum(map(mul, ys, lp.rhs))
    if primal * dy != dual * dx:
        return False, "duality gap is nonzero"
    value = sol.value
    if value is None or value.ints[0] * dx != primal * value.den:
        return False, "reported objective mismatches the primal point"
    return True, "ok"
