"""Statistics of a path ensemble that only the tests compute."""

import numpy as np

from levyap.solver import PathEnsemble


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
