"""Bounded-Lipschitz distance between empirical laws and the
almost-periodicity-in-distribution scan built on it.

The distance between probability measures mu and nu is

    beta(mu, nu) = sup { integral of f d(mu - nu) :
                         sup|f| + Lip(f) <= 1 },

a metric bounded by 2 that metrizes weak convergence.  For empirical
measures the supremum is a finite linear program over the values of f on
the union of supports.  Its Kantorovich-Rubinstein dual is a small
transport program with flows between the points of positive and of
negative signed mass, solved by scipy's HiGHS in one call.  The dual of
that solve, after one c-transform, is a feasible test function, and the
gap between the two bounds is checked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "EmpiricalLawError",
    "EmpiricalLaw",
    "LawTrajectory",
    "bl_distance",
    "law_trajectory",
    "scan_times",
    "APScanReport",
    "ap_distribution_scan",
]

_TIME_TOL = 1e-9


class EmpiricalLawError(ValueError):
    """Raised on malformed empirical laws or scan inputs."""


@dataclass(frozen=True, eq=False)
class EmpiricalLaw:
    """A finitely supported probability measure: points and weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise EmpiricalLawError("points must be a nonempty (n, d) array")
        if w.shape != (len(pts),):
            raise EmpiricalLawError("weights must match the number of points")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise EmpiricalLawError("points and weights must be finite")
        if w.min() < -1e-12:
            raise EmpiricalLawError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise EmpiricalLawError(f"weights sum to {w.sum()}, expected 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_samples(cls, points: np.ndarray) -> "EmpiricalLaw":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        return cls(pts, np.full(len(pts), 1.0 / len(pts)))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def subsample(self, k: int, seed: int = 0) -> "EmpiricalLaw":
        """Weight-proportional resample down to k equally weighted points.
        Identity when the support is already no larger than k."""
        if len(self.points) <= k:
            return self
        gen = np.random.default_rng(seed)
        idx = gen.choice(len(self.points), size=k, replace=True, p=self.weights)
        return EmpiricalLaw(self.points[idx], np.full(k, 1.0 / k))


def _signed_support(mu: EmpiricalLaw, nu: EmpiricalLaw):
    """Merge the two supports; return unique points with the signed
    weight difference, zero-difference points dropped.  The masses of mu
    and nu are accumulated separately and then subtracted, so swapping
    the arguments negates the difference bit for bit."""
    if mu.dim != nu.dim:
        raise EmpiricalLawError("laws must share a dimension")
    pts = np.concatenate([mu.points, nu.points], axis=0)
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    m = len(mu.points)
    mass_mu = np.zeros(len(uniq))
    mass_nu = np.zeros(len(uniq))
    np.add.at(mass_mu, inverse[:m], mu.weights)
    np.add.at(mass_nu, inverse[m:], nu.weights)
    delta = mass_mu - mass_nu
    keep = delta != 0.0
    return uniq[keep], delta[keep]


def bl_distance(
    mu: EmpiricalLaw,
    nu: EmpiricalLaw,
    support_cap: int = 4096,
    return_witness: bool = False,
):
    """Bounded-Lipschitz distance between two empirical laws, exact up to
    LP round-off, with a checked certificate.

    By Kantorovich-Rubinstein duality beta is the transport program

        min lambda  over  pi >= 0 (flows from P to Q),  alpha >= 0,
        sum_j pi_ij + alpha_i = |delta_i|  on P and on Q,
        sum alpha <= lambda,  sum pi_ij d_ij <= lambda,

    where P and Q hold the points of positive and negative signed mass
    delta = mu - nu.  Flows between P and Q suffice because d is a metric.
    HiGHS solves it; lambda is the upper bound.  The row duals give a
    test function f with box s and Lipschitz constant c, and one
    c-transform makes f feasible on every pair, so delta . f is a lower
    bound.  A gap above 1e-9 or a failed solve raises EmpiricalLawError.
    Supports larger than ``support_cap`` raise; subsample the laws first.
    beta(delta) = beta(-delta), and the LP is always solved with the
    first signed mass positive, which makes the call exactly symmetric
    in its arguments.
    """
    pts, delta = _signed_support(mu, nu)
    n = len(pts)
    if n == 0:
        if return_witness:
            return 0.0, {"f": np.zeros(0), "s": 0.0, "c": 0.0}
        return 0.0
    if n > support_cap:
        raise EmpiricalLawError(
            f"merged support {n} exceeds cap {support_cap}; "
            "subsample the laws first"
        )
    # imported here: `check` and `picard` never reach this, and scipy.optimize
    # adds about 0.3 s to start-up on top of numpy and scipy.linalg
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    sign = 1.0 if delta[0] > 0 else -1.0
    delta = sign * delta
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
        cost, A_ub=a_ub, b_ub=np.zeros(2), A_eq=a_eq, b_eq=np.abs(delta), method="highs"
    )
    if res.status != 0:
        raise EmpiricalLawError(f"beta LP failed (HiGHS status {res.status}): {res.message}")
    upper = float(res.fun)
    s, c = (max(-float(u), 0.0) for u in res.ineqlin.marginals)
    scale = max(1.0, s + c)
    s, c = s / scale, c / scale
    # dual on Q with its sign put back, clipped into the box, then the
    # c-transform: min(s, min_j f_j + c d(x, x_j)) is c-Lipschitz and in
    # [-s, s], and it only raises f on P and lowers it on Q
    f_q = np.maximum(-res.eqlin.marginals[q] / scale, -s)
    f = np.min(f_q[None, :] + c * dist_q, axis=1, initial=s)
    lower = float(delta @ f)
    if not abs(upper - lower) <= 1e-9:
        raise EmpiricalLawError(
            f"beta certificate gap {upper - lower:.3g} between the bounds "
            f"{lower!r} and {upper!r} exceeds 1e-9"
        )
    if return_witness:
        return upper, {"f": sign * f, "s": s, "c": c}
    return upper


# ---------------------------------------------------------------------------
# trajectories of laws and the distribution scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LawTrajectory:
    """Empirical laws of a process at a finite set of times."""

    times: np.ndarray
    laws: tuple[EmpiricalLaw, ...]

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) != len(self.laws):
            raise EmpiricalLawError("one law per time is required")
        if np.any(np.diff(times) <= 0):
            raise EmpiricalLawError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def index_of(self, t: float) -> Optional[int]:
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.times) and abs(self.times[j] - t) <= _TIME_TOL * max(
                1.0, abs(t)
            ):
                return j
        return None


def law_trajectory(
    ensemble,
    times: Sequence[float],
    n_support: Optional[int] = None,
    seed: int = 0,
) -> LawTrajectory:
    """Empirical laws of an ensemble at the requested grid times.

    ``ensemble`` needs ``grid`` (n+1,) and ``values`` (paths, n+1, d)
    attributes.  Laws are optionally subsampled to ``n_support`` points
    for tractable distance computations.
    """
    grid = np.asarray(ensemble.grid, dtype=float)
    values = np.asarray(ensemble.values)
    laws = []
    out_times = []
    for t in times:
        idx = int(np.argmin(np.abs(grid - t)))
        if abs(grid[idx] - t) > _TIME_TOL * max(1.0, abs(t)):
            raise EmpiricalLawError(f"time {t} is not on the ensemble grid")
        law = EmpiricalLaw.from_samples(values[:, idx, :])
        if n_support is not None:
            law = law.subsample(n_support, seed=seed)
        laws.append(law)
        out_times.append(grid[idx])
    return LawTrajectory(np.asarray(out_times), tuple(laws))


def scan_times(
    grid: np.ndarray, times: Sequence[float], shifts: Sequence[float]
) -> list[float]:
    """Grid times at which a shift scan needs laws: every base time t and
    every shifted time t + s, each snapped to its nearest grid point,
    sorted and without repeats."""
    h = float(grid[1] - grid[0])
    lo = float(grid[0])
    idx = {int(round((t - lo) / h)) for t in times}
    idx |= {int(round((t + s - lo) / h)) for t in times for s in shifts}
    return [float(grid[i]) for i in sorted(idx)]


@dataclass(frozen=True)
class APScanReport:
    """Result of scanning candidate shifts for almost periodicity in
    distribution: per-shift sup of the distances beta(law(t+s), law(t)),
    the accepted set at the given threshold, and the largest gap between
    consecutive accepted shifts (with 0 counted as accepted)."""

    shifts: np.ndarray
    sup_beta: np.ndarray
    eps: float
    accepted: np.ndarray
    max_gap: float
    pairs_per_shift: np.ndarray

    def as_dict(self) -> dict:
        return {
            "shifts": self.shifts.tolist(),
            "sup_beta": self.sup_beta.tolist(),
            "eps": self.eps,
            "accepted": self.accepted.tolist(),
            "max_gap": self.max_gap,
            "pairs_per_shift": self.pairs_per_shift.tolist(),
        }


def ap_distribution_scan(
    trajectory: LawTrajectory,
    shifts: Sequence[float],
    eps: float,
    support_cap: int = 4096,
) -> APScanReport:
    """Test each candidate shift s: compare the law at t + s with the law
    at t over every t in the trajectory for which both are available, and
    accept s when the largest distance stays within eps.

    Raises when some shift has no overlapping time pairs at all.
    """
    if eps <= 0:
        raise EmpiricalLawError("eps must be positive")
    shifts = np.asarray(list(shifts), dtype=float)
    sups = np.zeros(len(shifts))
    counts = np.zeros(len(shifts), dtype=int)
    for si, s in enumerate(shifts):
        worst = 0.0
        pairs = 0
        for ti, t in enumerate(trajectory.times):
            tj = trajectory.index_of(t + s)
            if tj is None:
                continue
            pairs += 1
            d = bl_distance(
                trajectory.laws[tj], trajectory.laws[ti], support_cap=support_cap
            )
            worst = max(worst, d)
        if pairs == 0:
            raise EmpiricalLawError(
                f"shift {s} has no overlap with the trajectory time grid"
            )
        sups[si] = worst
        counts[si] = pairs
    accepted = shifts[sups <= eps]
    if len(accepted):
        gaps = np.diff(np.concatenate([[0.0], np.sort(accepted)]))
        max_gap = float(gaps.max())
    else:
        max_gap = float("inf")
    return APScanReport(
        shifts=shifts,
        sup_beta=sups,
        eps=eps,
        accepted=accepted,
        max_gap=max_gap,
        pairs_per_shift=counts,
    )
