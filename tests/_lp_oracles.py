"""Exact-arithmetic reference computations of the bounded-Lipschitz
distance for tiny supports, used to certify the production solver.

Both oracles work on the original program

    maximize   sum_i delta_i f_i
    subject to |f_i| <= s,  |f_i - f_j| <= c d_ij,  s + c <= 1,
               s >= 0, c >= 0, f free,

with no reformulation shared with the package code: one walks the
vertices with a rational-arithmetic Bland simplex, the other enumerates
every basis by brute force.  All arithmetic is in fractions.Fraction, so
agreement certifies the floating-point solver end to end.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np


def signed_masses(a, b):
    """The signed mass difference of the uniform laws on the rows of the
    (n, d) arrays a and b, built from the rows alone: a row that a law of
    n rows repeats k times is an atom of exact mass Fraction(k, n).
    Returns the (k, d) points whose difference is nonzero, in
    lexicographic order, and their differences as Fractions."""
    mass = {}
    for rows, sign in ((a, 1), (b, -1)):
        for row in np.asarray(rows, dtype=float).tolist():
            mass[tuple(row)] = mass.get(tuple(row), Fraction(0)) + Fraction(sign, len(rows))
    atoms = sorted((p, m) for p, m in mass.items() if m)
    pts = np.array([p for p, _ in atoms], dtype=float).reshape(len(atoms), np.shape(a)[1])
    return pts, [m for _, m in atoms]


def _exact_gauss(rows, rhs):
    """Solve a square Fraction system; None when singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                k = m[r][col]
                m[r] = [a - k * t for a, t in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _original_program(pts, delta):
    """Rows (a, b) with a.x <= b over x = (f_1..f_n, s, c), plus the
    objective, all Fractions; f is free, s and c need explicit >= 0."""
    n = len(pts)
    nv = n + 2
    rows = []
    rhs = []

    def add(coeffs, bound):
        row = [Fraction(0)] * nv
        for idx, val in coeffs:
            row[idx] = Fraction(val)
        rows.append(row)
        rhs.append(Fraction(bound))

    for i in range(n):
        add([(i, 1), (n, -1)], 0)  # f_i <= s
        add([(i, -1), (n, -1)], 0)  # -f_i <= s
    for i in range(n):
        for j in range(i + 1, n):
            dij = Fraction(float(np.linalg.norm(pts[i] - pts[j])))
            add([(i, 1), (j, -1), (n + 1, -dij)], 0)
            add([(i, -1), (j, 1), (n + 1, -dij)], 0)
    add([(n, 1), (n + 1, 1)], 1)  # s + c <= 1
    add([(n, -1)], 0)  # s >= 0
    add([(n + 1, -1)], 0)  # c >= 0
    obj = [Fraction(d) for d in delta] + [Fraction(0), Fraction(0)]
    return rows, rhs, obj


def enumerate_bl_value(pts, delta):
    """Brute-force vertex enumeration, exact; supports up to ~4 points."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    if n == 0:
        return Fraction(0)
    rows, rhs, obj = _original_program(pts, delta)
    nv = n + 2
    best = None
    for active in combinations(range(len(rows)), nv):
        x = _exact_gauss([rows[k] for k in active], [rhs[k] for k in active])
        if x is None:
            continue
        if any(sum(r * v for r, v in zip(row, x)) > b for row, b in zip(rows, rhs)):
            continue
        val = sum(o * v for o, v in zip(obj, x))
        if best is None or val > best:
            best = val
    if best is None:
        raise AssertionError("no feasible vertex found; enumeration is wrong")
    return best


def rational_bl_value(pts, delta):
    """Exact Bland-rule simplex on the original program; up to ~6 points."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    if n == 0:
        return Fraction(0)
    rows, rhs, obj = _original_program(pts, delta)
    # split the free f into differences of nonnegative parts
    split_rows = [r[:n] + [-v for v in r[:n]] + r[n:] for r in rows]
    split_obj = obj[:n] + [-v for v in obj[:n]] + obj[n:]
    return _rational_simplex_max(split_obj, split_rows, rhs)


def _rational_simplex_max(obj, rows, rhs):
    """Textbook tableau simplex in exact arithmetic, Bland's rule."""
    m = len(rows)
    n = len(obj)
    zero = Fraction(0)
    tab = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        slack = [zero] * m
        slack[i] = Fraction(1)
        tab.append(list(row) + slack + [b])
    cost = [-v for v in obj] + [zero] * m + [zero]
    basis = list(range(n, n + m))
    for _ in range(200000):
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            return cost[-1]
        best = None
        row_i = None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[row_i])
                ):
                    best = ratio
                    row_i = i
        if row_i is None:
            raise AssertionError("oracle LP unbounded; formulation is wrong")
        piv = tab[row_i][col]
        tab[row_i] = [x / piv for x in tab[row_i]]
        for i in range(m):
            if i != row_i and tab[i][col] != 0:
                k = tab[i][col]
                tab[i] = [a - k * t for a, t in zip(tab[i], tab[row_i])]
        if cost[col] != 0:
            k = cost[col]
            cost = [a - k * t for a, t in zip(cost, tab[row_i])]
        basis[row_i] = col
    raise AssertionError("oracle simplex did not terminate")
