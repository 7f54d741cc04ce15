"""Statistics of a path ensemble that only the tests compute."""

import numpy as np

from levyap.solver import PathEnsemble


def l2_increment(ens: PathEnsemble, t: float, r: float) -> float:
    """Path-average of ||Y(t) - Y(r)||^2 for two grid times."""
    i = ens.index_of(t)
    j = ens.index_of(r)
    diff = ens.values[:, i, :] - ens.values[:, j, :]
    return float(np.mean(np.sum(diff**2, axis=1)))
