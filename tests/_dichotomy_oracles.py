"""A float envelope fit of the dichotomy constants (K, omega), the
oracle that the exact constants of ``dichotomy.diagonal_constants`` and
the declared constants of the shipped systems are checked against."""

from collections import namedtuple

import numpy as np

from levyap.dichotomy import DichotomousSystem, DichotomyError, NoDichotomyError

DichotomyEstimate = namedtuple("DichotomyEstimate", "k_hat omega_hat max_residual")


def estimate_constants(
    sys: DichotomousSystem,
    t_grid: np.ndarray,
    trial_vectors: np.ndarray | None = None,
) -> DichotomyEstimate:
    """Fit (K, omega) so that K e^{-omega t} envelopes both projected
    propagator norms on the grid.

    The decay rate comes from a least-squares line through the log of the
    pointwise norm envelope; K is then inflated until the bound covers
    every grid point, and the largest log gap to the envelope is reported.
    With ``trial_vectors`` the operator norms are replaced by the largest
    amplification among the given probes.

    Raises NoDichotomyError when the fitted slope shows no decay.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise DichotomyError("need a grid of at least two times")
    if np.any(t_grid < 0):
        raise DichotomyError("estimation grid must be nonnegative")
    if sys.rank_stable == 0 and sys.rank_unstable == 0:
        raise DichotomyError("system has no directions to estimate from")

    def probe_norm(mat: np.ndarray) -> float:
        if trial_vectors is None:
            return float(np.linalg.norm(mat, 2))
        v = np.asarray(trial_vectors, dtype=float)
        return float(
            np.max(np.linalg.norm(mat @ v, axis=0) / np.linalg.norm(v, axis=0))
        )

    envelope = np.zeros(len(t_grid))
    for i, t in enumerate(t_grid):
        m = 0.0
        if sys.rank_stable:
            m = max(m, probe_norm(sys.stable_matrix(t)))
        if sys.rank_unstable:
            m = max(m, probe_norm(sys.unstable_matrix(-t)))
        envelope[i] = m
    if np.any(envelope <= 0.0):
        raise DichotomyError("propagator norm vanished on the grid")

    log_env = np.log(envelope)
    slope, intercept = np.polyfit(t_grid, log_env, 1)
    if slope >= 0:
        raise NoDichotomyError(
            f"no dichotomy at this projection: fitted decay rate {-slope:.3g} <= 0"
        )
    omega_hat = -float(slope)
    log_k = float(np.max(log_env + omega_hat * t_grid))
    max_residual = float(np.max(np.abs(log_env - (log_k - omega_hat * t_grid))))
    return DichotomyEstimate(
        k_hat=float(np.exp(log_k)),
        omega_hat=omega_hat,
        max_residual=max_residual,
    )
