"""Statistics of a path ensemble that only the tests compute, and the
integral operator applied once (``apply_S``), which the solver only ever
iterates."""

from typing import Optional

import numpy as np

from levyap.solver import PathEnsemble, SolverError, _in_place_sweeps, _Plan, _tail_report


def grid_index(ens: PathEnsemble, t: float) -> int:
    """Index of the grid time ``t`` in the ensemble; ``t`` must be within
    1e-9 (relative) of a grid time inside the ensemble's window."""
    k = round(t / ens.h) - ens.k_lo
    assert abs(t - (k + ens.k_lo) * ens.h) <= 1e-9 * max(1.0, abs(t)), f"{t} is off the grid"
    assert 0 <= k <= ens.n_steps, f"{t} is outside the window"
    return k


def l2_increment(ens: PathEnsemble, t: float, r: float) -> float:
    """Path-average of ||Y(t) - Y(r)||^2 for two grid times."""
    diff = ens.values[:, grid_index(ens, t), :] - ens.values[:, grid_index(ens, r), :]
    return float(np.mean(np.sum(diff**2, axis=1)))


def apply_S(
    sys,
    cs,
    noise,
    ens: PathEnsemble,
    w: int,
    chunk_paths: Optional[int] = None,
    threads: int = 1,
) -> tuple[PathEnsemble, dict]:
    """One application of the integral operator S of ``picard_solve`` to
    an ensemble, by the same plan and in-place sweep: the input is copied
    once, coordinate-major, and swept; the coordinates S cannot reach
    (``_Plan.reach``) are then set to zero.  The truncation horizon is
    ``w`` whole steps.  Returns the new ensemble and the tail report."""
    h, k_lo, n = noise.h, noise.k_lo, noise.n_steps
    if (ens.h, ens.k_lo, ens.n_steps) != (h, k_lo, n):
        raise SolverError("noise and ensemble grids do not match")
    if ens.n_paths != noise.n_paths:
        raise SolverError("ensemble and noise path counts differ")
    d = cs.dim_state
    if sys.dim != d or ens.dim != d:
        raise SolverError("system, coefficients and ensemble dimensions differ")
    plan = _Plan.build(sys, cs, noise, w)
    values = np.moveaxis(ens.values, -1, 0).copy()
    with _in_place_sweeps(plan, chunk_paths, threads) as sweep:
        sweep(values)
    values[[i for i in range(d) if i not in plan.reach]] = 0.0
    out = PathEnsemble(h=h, k_lo=k_lo, values=np.moveaxis(values, 0, -1))
    return out, _tail_report(sys, plan)
