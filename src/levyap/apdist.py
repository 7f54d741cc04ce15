"""Bounded-Lipschitz distance between empirical laws and the
almost-periodicity-in-distribution scan built on it.

The distance between probability measures mu and nu is

    beta(mu, nu) = sup { integral of f d(mu - nu) :
                         sup|f| + Lip(f) <= 1 },

a metric bounded by 2 that metrizes weak convergence.  For empirical
measures the supremum is a finite linear program over the values of f on
the union of supports.  Coordinates that are constant across that union
change no distance and are dropped.  When one coordinate is left, the
program is solved exactly on the line: a cutting-plane loop over the
split s between the box and the Lipschitz constant, each step one
slope-trick pass, in numpy and plain Python.  Otherwise its
Kantorovich-Rubinstein dual, a small transport program with flows
between the points of positive and of negative signed mass, is solved
by scipy's HiGHS in one call.  Either solver yields an upper bound and a
feasible test function, and the gap between the two bounds is checked on
every call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from . import SUPPORT_CAP, LevyapError

__all__ = [
    "EmpiricalLawError",
    "EmpiricalLaw",
    "SUPPORT_CAP",
    "bl_distance",
    "APScanReport",
    "ap_distribution_scan",
]

_CERT_GAP = 1e-9  # largest accepted gap between the bounds on beta
# HiGHS's default feasibility tolerances (1e-7) leave duals whose test
# function misses the LP's optimum by more than _CERT_GAP on 2-d laws of
# 16-64 points; at 1e-10 the certificate closes
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_LINE_ROUNDS = 100  # cutting-plane rounds before beta on the line gives up


class EmpiricalLawError(ValueError, LevyapError):
    """Raised on malformed empirical laws or scan inputs."""


class EmpiricalLaw:
    """The uniform law on the rows of a nonempty, finite (n, d) array:
    a row that appears k times is an atom of mass k/n."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise EmpiricalLawError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise EmpiricalLawError("points must be finite")
        self.points = pts

    @classmethod
    def from_samples(cls, points: np.ndarray) -> "EmpiricalLaw":
        return cls(points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _signed_support(mu: EmpiricalLaw, nu: EmpiricalLaw):
    """Merge the two supports; return unique points with the signed
    mass difference, zero-difference points dropped.  Each row of a law
    of n rows adds 1/n to its point.  The masses of mu and nu are
    accumulated separately and then subtracted, so swapping the
    arguments negates the difference bit for bit."""
    if mu.dim != nu.dim:
        raise EmpiricalLawError("laws must share a dimension")
    pts = np.concatenate([mu.points, nu.points], axis=0)
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    m = len(mu.points)
    mass_mu = np.zeros(len(uniq))
    mass_nu = np.zeros(len(uniq))
    np.add.at(mass_mu, inverse[:m], 1.0 / m)
    np.add.at(mass_nu, inverse[m:], 1.0 / len(nu.points))
    delta = mass_mu - mass_nu
    keep = delta != 0.0
    return uniq[keep], delta[keep]


def bl_distance(
    mu: EmpiricalLaw,
    nu: EmpiricalLaw,
    return_witness: bool = False,
):
    """Bounded-Lipschitz distance between two empirical laws, exact up to
    round-off, with a checked certificate.

    Each law is uniform over its rows, so its total mass may miss 1 by
    rounding (ten rows carry 0.9999999999999999); both solvers allow it.
    Coordinates that are constant across the merged support are dropped
    first; this leaves every pairwise distance unchanged.  When at most
    one coordinate varies, beta is solved exactly on the line
    (``_line_bl``); otherwise by the HiGHS transport LP
    (``_transport_bl``).  Either solver returns an upper bound and a
    feasible test function f with box s and Lipschitz constant c, so
    delta . f is a lower bound; a gap above 1e-9 between the two raises
    EmpiricalLawError, as does a failed solve.  Merged supports larger
    than ``SUPPORT_CAP`` raise; subsample the laws first.  beta(delta) =
    beta(-delta), and both solvers always run with the first signed mass
    positive, which makes the call exactly symmetric in its arguments.
    """
    pts, delta = _signed_support(mu, nu)
    n = len(pts)
    if n == 0:
        if return_witness:
            return 0.0, {"f": np.zeros(0), "s": 0.0, "c": 0.0}
        return 0.0
    if n > SUPPORT_CAP:
        raise EmpiricalLawError(
            f"merged support {n} exceeds cap {SUPPORT_CAP}; "
            "subsample the laws first"
        )
    sign = 1.0 if delta[0] > 0 else -1.0
    delta = sign * delta
    vary = np.ptp(pts, axis=0) > 0
    if np.count_nonzero(vary) >= 2:
        # compress keeps the rows C-contiguous, so the distances are
        # summed in the same order as on the full points
        upper, f, s, c = _transport_bl(pts.compress(vary, axis=1), delta)
    else:
        # np.unique sorted the points, so the one varying coordinate is
        # increasing; with none (n = 1) argmax picks coordinate 0
        upper, f, s, c = _line_bl(pts[:, np.argmax(vary)], delta)
    lower = float(delta @ f)
    if not abs(upper - lower) <= _CERT_GAP:
        raise EmpiricalLawError(
            f"beta certificate gap {upper - lower:.3g} between the bounds "
            f"{lower!r} and {upper!r} exceeds {_CERT_GAP:g}"
        )
    if return_witness:
        return upper, {"f": sign * f, "s": s, "c": c}
    return upper


def _transport_bl(pts: np.ndarray, delta: np.ndarray):
    """beta by Kantorovich-Rubinstein duality as the transport program

        min lambda  over  pi >= 0 (flows from P to Q),  alpha >= 0,
        sum_j pi_ij + alpha_i = |delta_i|  on P and on Q,
        sum alpha <= lambda,  sum pi_ij d_ij <= lambda,

    where P and Q hold the points of positive and negative signed mass.
    Flows between P and Q suffice because d is a metric.  HiGHS solves
    it; lambda is the upper bound.  The row duals give a test function f
    with box s and Lipschitz constant c, and one c-transform makes f
    feasible on every pair.  Returns (upper, f, s, c)."""
    # imported here: `check` and `picard` never reach this, and neither
    # does a scan of laws that vary in one coordinate; scipy.optimize
    # adds about 0.2 s to start-up on top of numpy and scipy.linalg
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    n = len(pts)
    p = np.flatnonzero(delta > 0)
    q = np.flatnonzero(delta < 0)
    dist_q = np.linalg.norm(pts[:, None, :] - pts[None, q, :], axis=2)  # (n, |Q|)
    n_flow = len(p) * len(q)
    # columns: flows pi_ij (row-major over P x Q), then alpha, then lambda
    flow_i = np.repeat(p, len(q))
    flow_j = np.tile(q, len(p))
    rows = np.concatenate([flow_i, flow_j, np.arange(n)])
    cols = np.concatenate([np.arange(n_flow), np.arange(n_flow), n_flow + np.arange(n)])
    a_eq = csc_array((np.ones(len(rows)), (rows, cols)), shape=(n, n_flow + n + 1))
    a_ub = np.zeros((2, n_flow + n + 1))
    a_ub[0, n_flow:-1] = 1.0
    a_ub[1, :n_flow] = dist_q[p].ravel()
    a_ub[:, -1] = -1.0
    cost = np.zeros(n_flow + n + 1)
    cost[-1] = 1.0
    res = linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(2), A_eq=a_eq, b_eq=np.abs(delta), method="highs",
        options=_HIGHS_TOLERANCES,
    )
    if res.status != 0:
        raise EmpiricalLawError(f"beta LP failed (HiGHS status {res.status}): {res.message}")
    s, c = (max(-float(u), 0.0) for u in res.ineqlin.marginals)
    scale = max(1.0, s + c)
    s, c = s / scale, c / scale
    # dual on Q with its sign put back, clipped into the box, then the
    # c-transform: min(s, min_j f_j + c d(x, x_j)) is c-Lipschitz and in
    # [-s, s], and it only raises f on P and lowers it on Q
    f_q = np.maximum(-res.eqlin.marginals[q] / scale, -s)
    f = np.min(f_q[None, :] + c * dist_q, axis=1, initial=s)
    return float(res.fun), f, s, c


def _line_bl(x: np.ndarray, delta: np.ndarray):
    """beta for points x_1 < ... < x_n on the line, solved exactly
    without an LP.  Returns (upper, f, s, c).

    With gaps g_i = x_{i+1} - x_i and cumulative mass D_i = delta_1 +
    ... + delta_i, every R with R_0 = 0 and R_n = D_n is dual-feasible,
    and beta = min_R max(TV(R), W(R)) with TV(R) = sum |R_i - R_{i-1}|
    and W(R) = sum g_i |D_i - R_i|.  For a split s, V(s) = min_R
    s TV(R) + (1 - s) W(R) is the dual of the program with box s and
    Lipschitz constant 1 - s; each R gives the line W + s (TV - W) above
    the concave V, and beta = max_s V(s).  Cutting planes find that
    maximum exactly: start from R = D (the line s T, T = sum |delta_i|)
    and R = (0, ..., 0, D_n) (the W1 line), intersect the rising and the
    falling line, solve V at the intersection (``_line_dual``), stop when
    V reaches the intersection value, and otherwise let the new line
    replace the one on its side.  The upper bound is max(TV, W) of the
    convex combination of the two lines' R that is flat in s; f is the
    primal optimum at the final s (``_line_primal``)."""
    gaps = np.diff(x)
    D = np.cumsum(delta)

    def line(R):
        tv = abs(R[0]) + np.abs(np.diff(R)).sum()
        return float(tv), float(gaps @ np.abs(D[:-1] - R[:-1]))

    r_a, tv_a, w_a = D, float(np.abs(delta).sum()), 0.0
    r_b = np.zeros(len(D))
    r_b[-1] = D[-1]  # not 0: the total mass may be off by rounding
    tv_b, w_b = line(r_b)
    for _ in range(_LINE_ROUNDS):
        rise, fall = tv_a - w_a, tv_b - w_b
        if fall >= 0.0:
            # the line through V(1) = |D_n| does not fall: the maximum is at s = 1
            s, lam = 1.0, 0.0
            break
        s = min(max((w_b - w_a) / (rise - fall), 0.0), 1.0)
        lam = fall / (fall - rise)
        top = w_a + s * rise
        r = _line_dual(D, (1.0 - s) * gaps, s)
        tv, w = line(r)
        if w + s * (tv - w) >= top - 1e-3 * _CERT_GAP:
            break
        if tv >= w:
            r_a, tv_a, w_a = r, tv, w
        else:
            r_b, tv_b, w_b = r, tv, w
    else:
        raise EmpiricalLawError(
            f"beta on the line did not converge in {_LINE_ROUNDS} cutting-plane rounds"
        )
    r = lam * r_a + (1.0 - lam) * r_b
    r[-1] = D[-1]
    upper = max(line(r))
    return upper, _line_primal(D, (1.0 - s) * gaps, s), s, 1.0 - s


def _line_sweep(D: np.ndarray, w: np.ndarray, s: float, subgradients: bool):
    """Forward slope-trick pass for min_R s TV(R) + sum_k w_k |R_k - D_k|
    (k < n - 1) over R_0 .. R_{n-1} with R_{-1} = 0 and R_{n-1} = D_{n-1}.

    G_k(r) is the least cost of the terms before w_k |R_k - D_k| given
    R_k = r: G_0(r) = s |r|, and G_{k+1} is G_k + w_k |r - D_k| with its
    slopes clipped to [-s, s] (the infimal convolution with s |r|).  G_k
    is kept as sorted breakpoints and the slope jumps at them, with slope
    -s on the far left; adding w_k |r - D_k| inserts the jump 2 w_k at
    D_k, and the clip trims w_k of jump from each end.  The optimal R_k
    is R_{k+1} clamped to the ends [a_k, b_k] of what is left.

    Returns the ends and, with ``subgradients``, the subdifferential of
    G_k at D_k for every k < n, which is the argmax set of the primal
    program's value function at step k (it is D_k phi - G_k*(phi))."""
    pos, jump = [0.0], [2.0 * s]
    ends = []
    subs = []

    def subgradient(d):
        i = bisect_left(pos, d)
        left = sum(jump[:i]) - s
        return left, left + sum(jump[i : bisect_right(pos, d, i)])

    for d, wk in zip(D.tolist(), w.tolist()):
        if subgradients:
            subs.append(subgradient(d))
        i = bisect_left(pos, d)
        pos.insert(i, d)
        jump.insert(i, 2.0 * wk)
        cut = wk
        while len(jump) > 1 and jump[0] <= cut:
            cut -= jump[0]
            del pos[0], jump[0]
        jump[0] -= cut
        cut = wk
        while len(jump) > 1 and jump[-1] <= cut:
            cut -= jump.pop()
            pos.pop()
        jump[-1] -= cut
        ends.append((pos[0], pos[-1]))
    if subgradients:
        subs.append(subgradient(float(D[-1])))
    return ends, subs


def _line_dual(D: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """The minimising R of s TV(R) + sum_k w_k |R_k - D_k|, by the
    forward pass of ``_line_sweep`` and a backward clamp from D_n."""
    ends, _ = _line_sweep(D, w, s, subgradients=False)
    r = float(D[-1])
    out = [r]
    for a, b in reversed(ends):
        r = min(max(r, a), b)
        out.append(r)
    return np.array(out[::-1])


def _line_primal(D: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """A test function f with |f_k| <= s and |f_{k+1} - f_k| <= w_k that
    maximises delta . f: the primal value function at step k is concave
    on [-s, s] and dilated by w_k to the next, so backtracking from its
    last argmax takes each f_k as the point of the step's argmax set
    nearest f_{k+1}, clamped to within w_k of it.  The two-sweep
    c-transform on the line, min_j f_j + sum of w between, then removes
    any round-off violation of the Lipschitz bounds, and the clip keeps
    the box."""
    _, subs = _line_sweep(D, w, s, subgradients=True)
    w = w.tolist()
    lo, hi = subs[-1]
    phi = min(max(0.0, lo), hi)
    f = [phi]
    for (lo, hi), wk in zip(reversed(subs[:-1]), reversed(w)):
        nearest = min(max(phi, lo), hi)
        phi = min(max(nearest, phi - wk), phi + wk)
        f.append(phi)
    f.reverse()
    for k in range(1, len(f)):
        f[k] = min(f[k], f[k - 1] + w[k - 1])
    for k in range(len(f) - 2, -1, -1):
        f[k] = min(f[k], f[k + 1] + w[k])
    return np.clip(f, -s, s)


# ---------------------------------------------------------------------------
# the distribution scan
# ---------------------------------------------------------------------------


def _law_paths(n_paths: int, n_support: Optional[int], seed: int) -> np.ndarray:
    """The paths whose states make up every law of a scan: all of them,
    or, when ``n_support`` is below their number, one draw of
    ``n_support`` paths with replacement, shared by every time."""
    if n_support is None or n_paths <= n_support:
        return np.arange(n_paths)
    gen = np.random.default_rng(seed)
    return gen.choice(n_paths, size=n_support, replace=True, p=np.full(n_paths, 1.0 / n_paths))


class APScanReport(
    namedtuple("APScanReport", "shifts sup_beta eps accepted max_gap pairs_per_shift")
):
    """Result of scanning candidate shifts for almost periodicity in
    distribution: the shifts, per shift the sup of the distances
    beta(law(t+s), law(t)), the threshold eps, the mask of shifts
    accepted at it, the largest gap between consecutive accepted shifts
    (with 0 counted as accepted; infinite when no shift is accepted) and
    per shift the number of pairs the sup was taken over.  All but eps
    and the gap are arrays."""

    __slots__ = ()

    def as_dict(self) -> dict:
        """The body of ``apscan_report.json``; an infinite gap is None."""
        entries = zip(self.shifts.tolist(), self.sup_beta.tolist(), self.accepted.tolist())
        return {
            "epsilon": self.eps,
            "shifts": [{"s": s, "sup_beta": b, "accepted": a} for s, b, a in entries],
            "accepted_count": int(self.accepted.sum()),
            "max_gap": self.max_gap if np.isfinite(self.max_gap) else None,
        }


def scan_points(times: Sequence[int], offsets: Sequence[int]) -> list[int]:
    """The scan times of ``ap_distribution_scan``, as grid indices in
    increasing order: the base ``times`` and each shifted by each of the
    ``offsets``."""
    base = set(times)
    return sorted(base.union(*({i + k for i in base} for k in offsets)))


def ap_distribution_scan(
    ensemble,
    times: Sequence[int],
    offsets: Sequence[int],
    eps: float,
    n_support: Optional[int] = None,
    seed: int = 0,
) -> APScanReport:
    """Scan the shifts of a solved ensemble for almost periodicity in
    distribution.

    ``ensemble`` is a ``PathEnsemble`` on a uniform grid of step ``h``
    that holds every scan time (``rows``).  The scan works in whole grid steps: ``times`` are the
    base times as grid indices and ``offsets`` the shifts' steps.  The
    report states each shift as its steps times ``h``, the expression of
    the grid's times, so it states the shift that was scanned.  The scan
    times T are the base times and every t + s.  The law at a time is
    the empirical law of the states of the paths drawn by
    ``_law_paths(paths, n_support, seed)``, one draw for every time, in
    the coordinates the ensemble holds (``PathEnsemble.coords``): the
    others are +0.0 on every path, and ``bl_distance`` drops constant
    coordinates, so every distance is that of the full states.
    Shift s is compared on every pair (t, t + s) with both ends in T,
    not only at the base times, and is accepted when the largest
    distance stays within ``eps``.

    The arguments are those of a validated ``Run`` (``validate_config``),
    which ``cmd_apscan`` holds to at least one base time: ``eps > 0``,
    every shift at least one step and every scan time on the
    ensemble's grid.
    """
    values = np.asarray(ensemble.values)
    shifts = np.asarray(offsets) * ensemble.h
    scan = scan_points(times, offsets)
    paths = _law_paths(len(values), n_support, seed)
    laws = {
        i: EmpiricalLaw.from_samples(values[paths, row, :])
        for i, row in zip(scan, ensemble.rows(scan).tolist())
    }
    sups = np.zeros(len(shifts))
    counts = np.zeros(len(shifts), dtype=int)
    for si, k in enumerate(offsets):
        dists = [bl_distance(laws[i + k], laws[i]) for i in scan if i + k in laws]
        sups[si] = max(0.0, *dists)
        counts[si] = len(dists)
    accepted = sups <= eps
    gaps = np.diff(np.concatenate([[0.0], np.sort(shifts[accepted])]))
    return APScanReport(
        shifts=shifts,
        sup_beta=sups,
        eps=float(eps),
        accepted=accepted,
        max_gap=float(gaps.max()) if len(gaps) else float("inf"),
        pairs_per_shift=counts,
    )
