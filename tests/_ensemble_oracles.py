"""Statistics of a path ensemble that only the tests compute, the
integral operator applied once (``apply_S``), which the solver only ever
iterates, and the forward integrator (``simulate_mild``), whose run from
zero on a fully stable system forgets its start and meets the bounded
solution."""

import numpy as np

from levyap.coefficients import (
    compensator_terms,
    diffusion_terms,
    drift_terms,
    jump_terms,
    point_values,
)
from levyap.dichotomy import matrix_exp
from levyap.solver import (
    PathEnsemble,
    SolverError,
    _blocks,
    _draw_block,
    _Plan,
    _Scratch,
    _sweep_block,
    _tail_report,
)

# a forward state this large has blown up
_BLOWUP_GUARD = 1e8


def dense(ens: PathEnsemble) -> np.ndarray:
    """The states of the ensemble as (paths, rows, dim), +0.0 in the
    coordinates that it does not hold."""
    out = np.zeros((ens.n_paths, ens.values.shape[1], ens.dim))
    out[:, :, list(ens.coords)] = ens.values
    return out


def grid_index(ens: PathEnsemble, t: float) -> int:
    """Index of the grid time ``t`` in the ensemble; ``t`` must be within
    1e-9 (relative) of a grid time inside the ensemble's window."""
    k = round(t / ens.h) - ens.k_lo
    assert abs(t - (k + ens.k_lo) * ens.h) <= 1e-9 * max(1.0, abs(t)), f"{t} is off the grid"
    assert 0 <= k <= ens.n_steps, f"{t} is outside the window"
    return k


def l2_increment(ens: PathEnsemble, t: float, r: float) -> float:
    """Path-average of ||Y(t) - Y(r)||^2 for two grid times."""
    values = dense(ens)
    diff = values[:, grid_index(ens, t), :] - values[:, grid_index(ens, r), :]
    return float(np.mean(np.sum(diff**2, axis=1)))


def apply_S(
    sys,
    cs,
    noise,
    ens: PathEnsemble,
    w: int,
) -> tuple[PathEnsemble, dict]:
    """One application of the integral operator S of ``picard_solve`` to
    an ensemble, by the same plan and block sweeps, as one Picard
    iteration from the ensemble: the input's coordinates that S reaches
    (``_Plan.reach``) are copied once, coordinate-major, and swept block
    by block.  As in the solve, a term reads +0.0 for any other
    coordinate, so this is S of the ensemble when the input is zero in
    every coordinate outside the reach that a term reads, as every
    Picard iterate is.  The truncation horizon is ``w`` whole steps.
    Returns the new ensemble, which holds the reached coordinates, and
    the tail report."""
    h, k_lo, n = noise.h, noise.k_lo, noise.n_steps
    if (ens.h, ens.k_lo, ens.n_steps) != (h, k_lo, n):
        raise SolverError("noise and ensemble grids do not match")
    if ens.n_paths != noise.n_paths:
        raise SolverError("ensemble and noise path counts differ")
    d = cs.dim_state
    if sys.dim != d or ens.dim != d:
        raise SolverError("system, coefficients and ensemble dimensions differ")
    plan = _Plan.build(sys, cs, noise, w)
    values = np.moveaxis(dense(ens)[:, :, list(plan.reach)], -1, 0).copy()
    blocks = _blocks(noise.n_paths, n)
    scratch = _Scratch(plan, max(hi - lo for chunks in blocks for lo, hi in chunks))
    for chunks in blocks:
        lo, hi = chunks[0][0], chunks[-1][1]
        drawn = _draw_block(plan, lo, hi)
        _sweep_block(plan, values[:, lo:hi], chunks, scratch, drawn, zero=False)
    out = PathEnsemble(
        h=h, k_lo=k_lo, values=np.moveaxis(values, 0, -1), dim=d, coords=plan.reach
    )
    return out, _tail_report(sys, plan)


def simulate_mild(sys, cs, noise, y0: np.ndarray) -> PathEnsemble:
    """Integrate forward from the window start with an exponential Euler
    step: the full linear flow is applied to the state plus all the
    increments gathered over the step,

        Y_{k+1} = e^{Ah} [Y_k + f h + g dW + sum F - h comp_F + sum G],

    with coefficients always evaluated at the pre-jump grid state.
    Aborts with the offending path and time on blow-up.
    """
    h, k_lo, n = noise.h, noise.k_lo, noise.n_steps
    m = noise.n_paths
    d = cs.dim_state
    if sys.dim != d:
        raise SolverError("system and coefficient dimensions differ")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape == (d,):
        y0 = np.broadcast_to(y0, (m, d)).copy()
    if y0.shape != (m, d):
        raise SolverError(f"y0 must have shape ({d},) or ({m}, {d})")

    exp_ah = matrix_exp(sys.a, h)
    grid = noise.grid
    order = np.lexsort((noise.event_path, noise.event_step))
    ev_path, ev_step, ev_region, ev_marks = (
        noise.event_path[order],
        noise.event_step[order],
        noise.event_region[order],
        noise.event_marks[order],
    )
    starts = np.searchsorted(ev_step, np.arange(n + 1))

    out = np.empty((m, n + 1, d))
    out[:, 0, :] = y0
    y = y0
    for k in range(n):
        t = grid[k]
        at = grid[k : k + 1]  # the step's time, shared by every path
        f = point_values(drift_terms(cs, at), y)
        g = np.stack([point_values(c, y) for c in zip(*diffusion_terms(cs, at))], axis=-1)
        inc = f * h + np.einsum("mdq,mq->md", g, noise.dW[:, k, :])
        inc -= h * point_values(compensator_terms(cs, noise.spec, at), y)
        lo, hi = starts[k], starts[k + 1]
        if hi > lo:
            pk = ev_path[lo:hi]
            xk = ev_marks[lo:hi]
            small = ev_region[lo:hi] == 0
            ts = np.full(hi - lo, t)
            for tmap, region in ((cs.jump_small, small), (cs.jump_large, ~small)):
                if np.any(region):
                    terms = jump_terms(tmap, ts[region], xk[region])
                    np.add.at(inc, pk[region], point_values(terms, y[pk[region]]))
        y = (y + inc) @ exp_ah.T
        bad = ~np.isfinite(y) | (np.abs(y) > _BLOWUP_GUARD)
        if np.any(bad):
            p = int(np.nonzero(np.any(bad, axis=1))[0][0])
            raise SolverError(f"state blew up at t = {grid[k + 1]:.6g} on path {p}")
        out[:, k + 1, :] = y
    return PathEnsemble(h=h, k_lo=k_lo, values=out, dim=d, coords=range(d))
