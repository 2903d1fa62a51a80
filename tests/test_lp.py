import hashlib
import importlib.util
import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamelattice import lp
from gamelattice.errors import GameLatticeError, InternalError


def F(x):
    return Fraction(x)


def test_simple_maximum():
    # max x + y subject to x + 2y <= 4, 3x + y <= 6
    value, x = lp.simplex_maximize(
        [F(1), F(1)], [[F(1), F(2)], [F(3), F(1)]], [F(4), F(6)]
    )
    assert value == Fraction(14, 5)
    assert x == [Fraction(8, 5), Fraction(6, 5)]


def test_equality_constraint():
    # max x subject to x + y == 1
    value, x = lp.simplex_maximize([F(1), F(0)], lhs_eq=[[F(1), F(1)]], rhs_eq=[F(1)])
    assert value == 1
    assert x[0] == 1 and x[1] == 0


def test_negative_rhs_feasible():
    # max -x subject to -x <= -2  (i.e. x >= 2)
    value, x = lp.simplex_maximize([F(-1)], [[F(-1)]], [F(-2)])
    assert value == -2
    assert x == [F(2)]


def test_infeasible():
    # x <= 1 and x >= 2
    with pytest.raises(lp.Infeasible):
        lp.simplex_maximize([F(0)], [[F(1)], [F(-1)]], [F(1), F(-2)])


def test_unbounded():
    with pytest.raises(lp.Unbounded):
        lp.simplex_maximize([F(1)], [[F(-1)]], [F(0)])


def test_exact_fractions_survive():
    # max x subject to 3x <= 1
    value, x = lp.simplex_maximize([F(1)], [[F(3)]], [F(1)])
    assert value == Fraction(1, 3)
    assert isinstance(value, Fraction)


def test_degenerate_free_variable_split_terminates():
    # max t+ - t- subject to t+ - t- <= 5; Bland's rule must not cycle
    value, x = lp.simplex_maximize([F(1), F(-1)], [[F(1), F(-1)]], [F(5)])
    assert value == 5


def test_zero_objective_feasibility():
    value, x = lp.simplex_maximize(
        [F(0), F(0)], lhs_eq=[[F(1), F(1)]], rhs_eq=[F(1)]
    )
    assert value == 0
    assert sum(x) == 1


def test_negative_drive_out_pivot():
    # the artificial of -x == 0 stays basic at zero after phase 1 and leaves
    # on a negative pivot
    value, x = lp.simplex_maximize([F(1)], lhs_eq=[[F(-1)]], rhs_eq=[F(0)])
    assert value == 0 and x == [F(0)]


def test_negative_drive_out_pivot_then_more_pivots():
    # after phase 1 the artificial of the equality is basic at zero on a row
    # whose first nonzero entry is negative; phase 2 then has to read the
    # tableau's signs right to see that neither variable can grow
    value, x = lp.simplex_maximize([F(2), F(-1)], lhs_eq=[[F(-1), F(-1)]], rhs_eq=[F(0)])
    assert value == 0 and x == [F(0), F(0)]
    # the same after a phase-1 pivot, with an optimum away from the origin
    value, x = lp.simplex_maximize(
        [F(-1), F(2), F(0)], [[F(0), F(2), F(0)]], [F(2)], [[F(-1), F(1), F(-2)]], [F(1)]
    )
    assert value == 2 and x == [F(0), F(1), F(0)]


def test_internal_faults_are_package_errors():
    assert issubclass(lp.Infeasible, InternalError)
    assert issubclass(lp.Unbounded, InternalError)
    assert issubclass(InternalError, GameLatticeError)


def test_ragged_input_is_rejected():
    # a short row would read its right-hand side as a coefficient, and zip
    # would drop a row that has no right-hand side
    with pytest.raises(ValueError, match="coefficients"):
        lp.simplex_maximize([1, 1], [[1], [0, 1]], [1, 2])
    with pytest.raises(ValueError, match="right-hand side"):
        lp.simplex_maximize([1, 1], [[1, 0], [0, 1]], [1])


def test_duals_of_a_small_lp():
    # max x + y subject to x + 2y <= 4, 3x + y <= 6: y = (2/5, 1/5) prices
    # both rows, and a row that is not tight at the optimum is priced 0
    optimum = lp.simplex_maximize(
        [F(1), F(1)], [[F(1), F(2)], [F(3), F(1)], [F(1), F(0)]], [F(4), F(6), F(5)]
    )
    assert optimum.duals == [Fraction(2, 5), Fraction(1, 5), F(0)]
    # a negated `<=` row and an equality: max -x subject to -x <= -2 (x >= 2),
    # x + y == 3, priced by y = (1, 0) with the value -2
    optimum = lp.simplex_maximize([F(-1), F(0)], [[F(-1), F(0)]], [F(-2)], [[F(1), F(1)]], [F(3)])
    value, x = optimum
    assert (value, x, optimum.duals) == (-2, [F(2), F(1)], [F(1), F(0)])


def test_non_fraction_inputs_are_taken_exactly():
    value, x = lp.simplex_maximize([1, 0.5], [[1, 1]], ["3/2"])
    assert value == Fraction(3, 2) and x == [Fraction(3, 2), 0]


# -- differential test against brute-force vertex enumeration ----------------


def _solve_square(rows, rhs):
    """The unique solution of a square system, or None when it is singular."""
    k = len(rows)
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][k] / a[r][r] for r in range(k)]


def _dot(row, x):
    return sum((a * b for a, b in zip(row, x)), Fraction(0))


def _feasible(x, le, b_le, eq, b_eq):
    return (
        all(v >= 0 for v in x)
        and all(_dot(row, x) <= b for row, b in zip(le, b_le))
        and all(_dot(row, x) == b for row, b in zip(eq, b_eq))
    )


def _vertices(n, le, b_le, eq, b_eq):
    """Every basic feasible point: n tight constraints with a unique solution."""
    unit = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    tight = list(zip(le, b_le)) + list(zip(eq, b_eq)) + [(u, F(0)) for u in unit]
    points = []
    for chosen in itertools.combinations(tight, n):
        x = _solve_square([row for row, _ in chosen], [b for _, b in chosen])
        if x is not None and _feasible(x, le, b_le, eq, b_eq):
            points.append(x)
    return points


def _dual_optimal(c, le, b_le, eq, b_eq, value, duals):
    """duals is feasible for the dual LP (minimize b . y subject to
    le^T y_le + eq^T y_eq >= c, y_le >= 0) and reaches the primal value."""
    rows = list(le) + list(eq)
    return (
        len(duals) == len(rows)
        and all(y >= 0 for y in duals[: len(le)])
        and all(_dot([row[j] for row in rows], duals) >= c[j] for j in range(len(c)))
        and _dot(list(b_le) + list(b_eq), duals) == value
    )


def brute_force_maximize(c, le, b_le, eq, b_eq):
    """max c.x over {x >= 0, le x <= b_le, eq x == b_eq} by enumeration.

    The region lies in x >= 0, so it has a vertex when it is not empty.  It
    is unbounded in c exactly when some direction d >= 0 with le d <= 0,
    eq d == 0 and sum(d) == 1 has c.d > 0, a bounded LP of its own.
    """
    n = len(c)
    points = _vertices(n, le, b_le, eq, b_eq)
    if not points:
        return "Infeasible"
    rays = _vertices(
        n, le, [F(0)] * len(le), list(eq) + [[F(1)] * n], [F(0)] * len(eq) + [F(1)]
    )
    if any(_dot(c, d) > 0 for d in rays):
        return "Unbounded"
    return max(_dot(c, x) for x in points)


COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def tiny_lps(draw):
    n = draw(st.integers(1, 3))
    k_le = draw(st.integers(0, 3))
    k_eq = draw(st.integers(0, 3 - k_le))
    row = st.lists(COEFFS, min_size=n, max_size=n)
    c = draw(row)
    le = draw(st.lists(row, min_size=k_le, max_size=k_le))
    eq = draw(st.lists(row, min_size=k_eq, max_size=k_eq))
    b_le = draw(st.lists(COEFFS, min_size=k_le, max_size=k_le))
    b_eq = draw(st.lists(COEFFS, min_size=k_eq, max_size=k_eq))
    return c, le, b_le, eq, b_eq


@settings(max_examples=300, deadline=None)
@example(([F(1)], [], [], [[F(-1)]], [F(0)]))  # negative drive-out pivot
@example(([F(2), F(-1)], [], [], [[F(-1), F(-1)]], [F(0)]))  # and phase 2 after it
@example(([F(1), F(1)], [[F(1), F(1)], [F(1), F(1)]], [F(1), F(1)], [], []))  # tie
@example(([F(1), F(-1)], [[F(1), F(-1)]], [F(5)], [], []))  # degenerate split
@example(
    (
        [Fraction(1, 2), Fraction(1, 3)],
        [[Fraction(-1, 2), F(1)]],
        [Fraction(-3, 2)],
        [[Fraction(2, 3), F(1)]],
        [Fraction(5, 3)],
    )
)  # non-integer coefficients with a negative right-hand side
@given(tiny_lps())
def test_simplex_agrees_with_vertex_enumeration(case):
    c, le, b_le, eq, b_eq = case
    expected = brute_force_maximize(c, le, b_le, eq, b_eq)
    try:
        optimum = lp.simplex_maximize(c, le, b_le, eq, b_eq)
    except lp.Infeasible:
        assert expected == "Infeasible"
        return
    except lp.Unbounded:
        assert expected == "Unbounded"
        return
    value, x = optimum
    assert value == expected
    assert _feasible(x, le, b_le, eq, b_eq)
    assert _dot(c, x) == value
    # strong duality: the dual read off the final tableau is optimal too
    assert _dual_optimal(c, le, b_le, eq, b_eq, value, optimum.duals)


# -- the frozen LP corpus of the benchmark -------------------------------------


def _load_lpcorpus():
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "lpcorpus.py"
    spec = importlib.util.spec_from_file_location("lpcorpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frozen_corpus_replays_exactly():
    """Every captured LP gives its recorded value (or raises the recorded
    exception), every returned x is feasible and attains the value, and
    every returned dual is feasible and attains it too."""
    lpcorpus = _load_lpcorpus()
    instances = lpcorpus.load()
    assert len(instances) == 3000
    mismatches = []
    duals_checked = 0
    for k, inst in enumerate(instances):
        got, x = lpcorpus.outcome_of(lp.simplex_maximize, inst)
        if got != inst[5] or (x is not None and not lpcorpus.attains(inst, Fraction(got), x)):
            mismatches.append((k, inst[5], got))
        elif x is not None:
            duals = lp.simplex_maximize(*inst[:5]).duals
            if not _dual_optimal(*inst[:5], Fraction(got), duals):
                mismatches.append((k, "dual", [str(y) for y in duals]))
            duals_checked += 1
    assert mismatches == []
    assert duals_checked == 3000


# sha256 over the corpus, one line per instance: repr((str(value), [str(v)
# for v in x])), or the name of the exception raised
CORPUS_VERTEX_DIGEST = "654146ae125e4170fd85f63bc1723dd6c4577fa7100d03d5702483a6ff7fc4d5"


def test_frozen_corpus_vertices_are_pinned():
    """The replay accepts any optimal x; this pins the vertex itself, so a
    change in pivoting order that lands on another optimum shows."""
    digest = hashlib.sha256()
    for obj, lhs_le, rhs_le, lhs_eq, rhs_eq, _ in _load_lpcorpus().load():
        try:
            value, x = lp.simplex_maximize(obj, lhs_le, rhs_le, lhs_eq, rhs_eq)
            line = repr((str(value), [str(v) for v in x]))
        except GameLatticeError as exc:
            line = type(exc).__name__
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CORPUS_VERTEX_DIGEST
