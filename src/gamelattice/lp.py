"""Exact linear programming over the rationals.

A dense two-phase simplex with Bland's pivoting rule on an integer tableau.
`Fraction` appears only at entry and exit: every constraint row is scaled by
one common positive integer (the least common multiple of all coefficient
denominators), and the tableau keeps one common denominator `D > 0`, so that
the true tableau is `A / D` with `A` all integers.  Pivoting on `p = A[r][c]`
is fraction-free elimination (Edmonds 1967, Bareiss 1968, as in Avis's
`lrs`): every other row becomes `(p*a - f*b) // D`, a division that is exact
because every entry is a minor of the scaled input, and `D` becomes `p`.
Ratio tests compare by cross-multiplication; the optimal value and `x` are
built as `Fraction`s only on return.  Feasibility and optimality are decided
exactly; no tolerances exist anywhere.

Scaling every row by the same positive integer scales each slack and
artificial variable by it and leaves `x` alone, so Bland's rule makes the
same pivots as on the rational tableau and the returned value and `x` are
the ones a `Fraction` tableau gives.  The optimal dual solution is read off
the final cost row, which holds D times the reduced costs: the reduced cost
of a row's slack or artificial column is minus that row's dual multiplier,
up to the row's sign and the two scales, so it costs no extra LP or pivot.
Problem sizes in this package are tiny (a handful of variables and
constraints), so the dense tableau is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InternalError

ZERO = Fraction(0)
ONE = Fraction(1)


class Infeasible(InternalError):
    pass


class Unbounded(InternalError):
    pass


class Optimum(tuple):
    """An optimal solution: unpacks as (value, x), and `duals` holds an
    optimal solution y of the dual LP, one multiplier per `<=` row and then
    one per `==` row, in input order.  The `<=` multipliers are
    non-negative, lhs_le^T y_le + lhs_eq^T y_eq >= objective componentwise,
    and rhs_le . y_le + rhs_eq . y_eq equals the value."""

    def __new__(cls, value: Fraction, x: list[Fraction], duals: list[Fraction]):
        optimum = super().__new__(cls, (value, x))
        optimum.duals = duals
        return optimum


def _rational(v):
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _scaled(values: list, scale: int) -> list[int]:
    """values times scale, as ints; scale is a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def simplex_maximize(
    objective: Sequence[Fraction],
    lhs_le: Sequence[Sequence[Fraction]] = (),
    rhs_le: Sequence[Fraction] = (),
    lhs_eq: Sequence[Sequence[Fraction]] = (),
    rhs_eq: Sequence[Fraction] = (),
) -> Optimum:
    """Maximize objective . x subject to lhs_le . x <= rhs_le,
    lhs_eq . x == rhs_eq, and x >= 0.

    Returns the Optimum (optimal value, optimal x), with the optimal dual
    solution as its `duals`.  Raises Infeasible or Unbounded,
    and ValueError when a row's length or the number of right-hand sides
    does not match.
    """
    n = len(objective)
    if len(lhs_le) != len(rhs_le) or len(lhs_eq) != len(rhs_eq):
        raise ValueError("every constraint row needs one right-hand side")
    if any(len(coeffs) != n for lhs in (lhs_le, lhs_eq) for coeffs in lhs):
        raise ValueError(f"every constraint row needs {n} coefficients")
    # each row as its coefficients followed by its right-hand side; a row
    # with a negative right-hand side is negated, so a `<=` row turns `>=`
    rows: list[list] = []
    kinds: list[str] = []
    signs: list[int] = []  # -1 for a negated row
    # (kind, kind once negated, rows, right-hand sides)
    groups = (("le", "ge", lhs_le, rhs_le), ("eq", "eq", lhs_eq, rhs_eq))
    for kind, flipped, lhs, rhs in groups:
        for coeffs, b in zip(lhs, rhs):
            row = [_rational(v) for v in coeffs]
            row.append(_rational(b))
            if row[-1] < 0:
                rows.append([-v for v in row])
                kinds.append(flipped)
                signs.append(-1)
            else:
                rows.append(row)
                kinds.append(kind)
                signs.append(1)

    m = len(rows)
    # one slack column per `<=` or `>=` row, then one artificial column per
    # `>=` or `==` row, each in row order
    art_start = n + len(lhs_le)
    width = art_start + m - kinds.count("le")
    # lcm over a set, not a generator: unpacking a generator builds a resized
    # tuple per call that CPython then parks in its tuple free lists, which
    # grew a long-running process by megabytes
    scale = lcm(*{v.denominator for row in rows for v in row})

    # tableau rows hold `width` columns and then the right-hand side
    tableau: list[list[int]] = []
    basis = [0] * m
    # per row, (column, sign): its dual multiplier is sign times the final
    # cost row's entry in that column, times scale / (D * obj_scale)
    dual_columns = []
    slack_pos = n
    art_pos = art_start
    for r, (row, kind) in enumerate(zip(rows, kinds)):
        scaled = _scaled(row, scale)
        trow = scaled[:n] + [0] * (width - n) + scaled[n:]
        if kind != "eq":
            trow[slack_pos] = 1 if kind == "le" else -1
            basis[r] = slack_pos
            # the slack's reduced cost is -pi on a kept row and +pi on a
            # negated one, and the negation flips pi back
            dual_columns.append((slack_pos, -1))
            slack_pos += 1
        else:
            dual_columns.append((art_pos, -signs[r]))
        if kind != "le":
            trow[art_pos] = 1
            basis[r] = art_pos
            art_pos += 1
        tableau.append(trow)

    denom = 1  # the common denominator D of the tableau and the cost row

    def pivot(r: int, c: int, cost_row: list[int] | None):
        """Fraction-free pivot on a positive tableau[r][c]."""
        nonlocal denom
        prow = tableau[r]
        p = prow[c]
        d = denom
        for rr in range(m):
            if rr != r:
                tableau[rr] = _eliminate(tableau[rr], prow, p, d, c)
        if cost_row is not None:
            cost_row[:] = _eliminate(cost_row, prow, p, d, c)
        basis[r] = c
        denom = p

    def optimize(cost_row: list[int], allowed: int):
        """Pivot with Bland's rule to maximize over columns < allowed.

        cost_row holds the reduced costs times a positive multiple of D and,
        last, minus the objective value times that multiple.
        """
        while True:
            enter = -1
            for j in range(allowed):
                if cost_row[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best_b = best_a = 0
            for r in range(m):
                row = tableau[r]
                a = row[enter]
                if a > 0:
                    # ratio row[-1] / a against best_b / best_a
                    b = row[-1]
                    if leave < 0:
                        better = True
                    else:
                        lhs, rhs = b * best_a, best_b * a
                        better = lhs < rhs or (lhs == rhs and basis[r] < basis[leave])
                    if better:
                        best_b, best_a, leave = b, a, r
            if leave < 0:
                raise Unbounded("objective unbounded above")
            pivot(leave, enter, cost_row)

    def reduced_cost_row(cost: list[int]) -> list[int]:
        """D times the reduced costs of `cost`, then minus D times the value."""
        out = [c * denom for c in cost] + [0]
        for r in range(m):
            cb = cost[basis[r]]
            if cb:
                out = [z - cb * v for z, v in zip(out, tableau[r])]
        return out

    if width > art_start:
        cost_row = reduced_cost_row([0] * art_start + [-1] * (width - art_start))
        optimize(cost_row, width)
        if cost_row[-1] != 0:
            raise Infeasible("phase 1 ended with positive artificial mass")
        # drive any degenerate artificial out of the basis
        for r in range(m):
            if basis[r] >= art_start:
                row = tableau[r]
                for j in range(art_start):
                    if row[j] != 0:
                        if row[j] < 0:
                            # the row reads 0 on the right; negating it keeps D > 0
                            tableau[r] = [-v for v in row]
                        pivot(r, j, None)
                        break
        # rows still basic in an artificial are identically zero; freeze them
        for r in range(m):
            if basis[r] >= art_start:
                tableau[r] = [0] * (width + 1)

    objective = [_rational(v) for v in objective]
    obj_scale = lcm(*{v.denominator for v in objective})
    cost2 = _scaled(objective, obj_scale) + [0] * (width - n)
    cost_row = reduced_cost_row(cost2)
    optimize(cost_row, art_start)

    value = Fraction(-cost_row[-1], obj_scale * denom)
    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tableau[r][-1], denom)
    duals = [Fraction(sign * cost_row[c] * scale, obj_scale * denom) for c, sign in dual_columns]
    return Optimum(value, x, duals)


def _eliminate(row: list[int], prow: list[int], p: int, d: int, c: int) -> list[int]:
    """One Bareiss row update: (p*row - row[c]*prow) / d, exact in integers."""
    f = row[c]
    if f == 0:
        if p == d:
            return row
        return [p * a // d for a in row]
    return [(p * a - f * b) // d for a, b in zip(row, prow)]
