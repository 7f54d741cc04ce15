"""Linear systems with an exponential dichotomy.

A system pairs a generator matrix A with a projection P commuting with A
and constants K, omega such that the semigroup e^{At} contracts like
K e^{-omega t} on range(P) forward in time and like K e^{omega t} on
range(I - P) backward in time.  Forward evolution restricted to the
unstable range is inverted through the subspace, never through a full
matrix exponential, so stiff stable directions cannot overflow and
round-off from the complementary subspace cannot contaminate the result:
both projected propagators are computed as U e^{Bt} U^T Proj where U is
an orthonormal basis of the invariant range and B the compression of A
to it.

The constants of a diagonal system with a 0/1 diagonal projection are
exact (``diagonal_constants``: K = 1 and omega the slowest decay rate,
in Fractions).  Other systems are only spot-checked at sampled times and
probe vectors (``spot_check_dichotomy``).

The exponential and its integral of a diagonal generator are taken
entrywise in closed form (``matrix_exp``, ``integrated_exp``), so a
diagonal system loads no scipy module; scipy is imported on the first
exponential of a matrix that is not diagonal.  numpy itself is loaded on
the first array a system builds, so a system certified by
``diagonal_constants`` that only reports its constants loads neither.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import LevyapError, _lazy_import

np = _lazy_import("numpy")

__all__ = [
    "DichotomyError",
    "NoDichotomyError",
    "MatrixExpOverflowError",
    "DichotomousSystem",
    "matrix_exp",
    "diagonal_constants",
    "spot_check_dichotomy",
]

_EXP_GROWTH_LIMIT = 700.0  # e^700 is the edge of double range


class DichotomyError(ValueError, LevyapError):
    """Raised when a declared dichotomous system is inconsistent."""


class NoDichotomyError(DichotomyError):
    """Raised when no exponential decay is detectable for a projection."""


class MatrixExpOverflowError(ArithmeticError, LevyapError):
    """Raised when a matrix exponential would overflow double range."""


def _is_diagonal(m: np.ndarray) -> bool:
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))


def _guard_growth(growth: float) -> None:
    """Raise when the growth exponent of e^{At} leaves double range."""
    if growth > _EXP_GROWTH_LIMIT:
        raise MatrixExpOverflowError(
            f"matrix exponential overflow risk: growth bound mu(At) = {growth:.3g} "
            f"> {_EXP_GROWTH_LIMIT}"
        )


def _check_finite(a: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(a)) or not np.isfinite(t):
        raise MatrixExpOverflowError("matrix exponential of non-finite input")


def matrix_exp(a: np.ndarray, t: float) -> np.ndarray:
    """e^{A t}, guarded against overflow by a bound on its growth, so a
    decaying exponential never raises.

    A diagonal At is exponentiated entrywise, the float operation
    ``scipy.linalg.expm`` applies to diagonal input, with no scipy
    import, and its growth max_i a_ii t is exact.  Any other At goes to
    ``expm``.
    """
    a = np.asarray(a, dtype=float)
    _check_finite(a, t)
    if a.size == 0:
        return np.zeros_like(a)
    at = a * t
    if _is_diagonal(at):
        _guard_growth(float(np.max(np.diagonal(at))))
        return np.diag(np.exp(np.diagonal(at)))
    # the logarithmic norm mu_2(At) = lambda_max((At + (At)^T) / 2)
    # bounds the growth: ||e^{At}||_2 <= e^{mu_2(At)}
    _guard_growth(float(np.linalg.eigvalsh((at + at.T) / 2)[-1]))
    from scipy.linalg import expm

    return expm(at)


def integrated_exp(a: np.ndarray, t: float) -> np.ndarray:
    """The integral of e^{A s} ds over [0, t].

    For a diagonal A it is diag(expm1(a_ii t) / a_ii), and t where
    a_ii = 0.  Otherwise it comes from one exponential of the augmented
    block matrix [[A, I], [0, 0]]; exact also when A is singular.  Both
    ways carry the overflow guard of ``matrix_exp``.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if d == 0:
        return np.zeros((0, 0))
    if _is_diagonal(a):
        _check_finite(a, t)
        rates = np.diagonal(a)
        at = rates * t
        _guard_growth(float(np.max(at)))
        out = np.full(d, float(t))
        np.divide(np.expm1(at), rates, out=out, where=rates != 0)
        return np.diag(out)
    aug = np.zeros((2 * d, 2 * d))
    aug[:d, :d] = a
    aug[:d, d:] = np.eye(d)
    return matrix_exp(aug, t)[:d, d:]


def _orthonormal_range(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a projection matrix."""
    u, s, _ = np.linalg.svd(m)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if len(s) else 0.0)))
    return u[:, :rank]


class DichotomousSystem:
    """Generator, projection and dichotomy constants, with derived bases.

    The constructor trusts its input: it is for a system whose constants
    ``diagonal_constants`` certified exactly, which implies everything
    :meth:`create` checks.  Use :meth:`create` for any other system; it
    validates the projection algebra in floating point and spot-checks
    the declared decay bounds.

    ``a`` and ``p`` are arrays or rows of numbers; their float arrays,
    ``j = I - P``, the orthonormal bases of range(P) and range(I - P) and
    the compressions of A to them are built on first use and kept, so a
    system that only reports its constants builds no array.
    ``constants`` holds K and omega as given (exact rationals from a
    config), ``k`` and ``omega`` their float values.
    """

    def __init__(self, a, p, k, omega):
        self.dim = len(a)
        self.constants = (k, omega)
        self.k = float(k)
        self.omega = float(omega)
        self._given = (a, p)

    @cached_property
    def a(self) -> np.ndarray:
        return np.asarray(self._given[0], dtype=float)

    @cached_property
    def p(self) -> np.ndarray:
        return np.asarray(self._given[1], dtype=float)

    @cached_property
    def j(self) -> np.ndarray:
        return np.eye(self.dim) - self.p

    @cached_property
    def basis_stable(self) -> np.ndarray:
        """Orthonormal basis of range(P)."""
        return _orthonormal_range(self.p)

    @cached_property
    def gen_stable(self) -> np.ndarray:
        """A compressed to range(P)."""
        u = self.basis_stable
        return u.T @ self.a @ u

    @cached_property
    def basis_unstable(self) -> np.ndarray:
        """Orthonormal basis of range(I - P)."""
        return _orthonormal_range(self.j)

    @cached_property
    def gen_unstable(self) -> np.ndarray:
        """A compressed to range(I - P)."""
        u = self.basis_unstable
        return u.T @ self.a @ u

    @classmethod
    def create(
        cls,
        a: np.ndarray,
        p: np.ndarray,
        k: float,
        omega: float,
    ) -> "DichotomousSystem":
        a = np.asarray(a, dtype=float)
        p = np.asarray(p, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DichotomyError("generator must be square")
        d = a.shape[0]
        if p.shape != (d, d):
            raise DichotomyError("projection shape must match the generator")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
            raise DichotomyError("generator and projection must be finite")
        p_max = float(np.abs(p).max())
        scale = max(1.0, float(np.abs(a).max()), p_max * p_max)
        if not np.isfinite(scale):
            raise DichotomyError(
                f"projection P has an entry {p_max:g} whose square overflows a float"
            )
        # a product that overflows leaves inf - inf = NaN in the error,
        # which fails the test as written
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.abs(p @ p - p).max() <= 1e-10 * scale:
                raise DichotomyError("projection is not idempotent within 1e-10")
            if not np.abs(a @ p - p @ a).max() <= 1e-10 * scale:
                raise DichotomyError(
                    "projection does not commute with the generator within 1e-10"
                )
        if not (k > 0 and np.isfinite(k)):
            raise DichotomyError("constant K must be positive and finite")
        if not (omega > 0 and np.isfinite(omega)):
            raise DichotomyError("constant omega must be positive and finite")
        sys = cls(a, p, k, omega)
        if sys.rank_stable + sys.rank_unstable != d:
            raise DichotomyError("ranges of P and I - P do not span the space")
        worst = spot_check_dichotomy(sys)
        if worst > 1.0 + 1e-9:
            raise DichotomyError(
                f"declared bounds K={k}, omega={omega} violated by factor {worst:.6g}"
            )
        return sys

    @property
    def rank_stable(self) -> int:
        return self.basis_stable.shape[1]

    @property
    def rank_unstable(self) -> int:
        return self.basis_unstable.shape[1]

    def default_truncation(self, h: float) -> int:
        """Convolution horizon 12/omega in whole steps h, at least one:
        the kernel bound K e^{-omega t} has fallen by e^{-12}, about
        6e-6, at the cut."""
        return max(1, round(12.0 / self.omega / h))

    def _on_half(self, stable: bool, fn, t: float) -> np.ndarray:
        """U fn(B, t) U^T Q for Q = P (``stable``) or I - P, U the
        orthonormal basis of range(Q) and B the compression of A to it.
        An empty half gives the zero matrix: fn(B, t) is 0 x 0 there."""
        if stable:
            u, b, q = self.basis_stable, self.gen_stable, self.p
        else:
            u, b, q = self.basis_unstable, self.gen_unstable, self.j
        return u @ fn(b, t) @ (u.T @ q)

    def stable_matrix(self, t: float) -> np.ndarray:
        """e^{At} P as a matrix, for t >= 0."""
        if t < 0:
            raise DichotomyError("stable propagator is defined for t >= 0")
        return self._on_half(True, matrix_exp, t)

    def unstable_matrix(self, t: float) -> np.ndarray:
        """e^{At} (I - P) as a matrix, for t <= 0.

        Realized through the unstable invariant subspace, where the
        semigroup is invertible backward in time.
        """
        if t > 0:
            raise DichotomyError("unstable propagator is defined for t <= 0")
        return self._on_half(False, matrix_exp, t)

    def stable_kernel_matrix(self, t: float) -> np.ndarray:
        """Integral of e^{Au} P du over [0, t], for t >= 0."""
        if t < 0:
            raise DichotomyError("stable kernel is defined for t >= 0")
        return self._on_half(True, integrated_exp, t)

    def unstable_kernel_matrix(self, t: float) -> np.ndarray:
        """Integral of e^{Au} (I - P) du over [t, 0], for t <= 0."""
        if t > 0:
            raise DichotomyError("unstable kernel is defined for t <= 0")
        return self._on_half(False, lambda b, s: -integrated_exp(b, s), t)


def diagonal_constants(a, p) -> Optional[tuple[Fraction, Fraction]]:
    """Exact dichotomy constants (K, omega) of a diagonal system, or None
    when the system is not one.

    ``a`` and ``p`` are square matrices (sequences of rows) of exact
    rationals.  When A is diagonal and P is a diagonal of 0s and 1s,
    e^{At} P is diagonal with entries e^{a_ii t} over the stable indices
    (p_ii = 1), and e^{At} (I - P) likewise over the unstable ones.  So
    K = 1 and omega = min(-a_ii over stable i, a_ii over unstable i)
    bound both, and are the tightest constants that do: at t = 0 whichever
    of P and I - P is nonzero has norm 1, and the slowest mode decays at
    exactly omega.

    Raises NoDichotomyError when that omega is not positive.
    """
    d = len(a)
    if d == 0 or len(p) != d or any(len(row) != d for row in (*a, *p)):
        return None
    for i in range(d):
        if p[i][i] not in (0, 1):
            return None
        for j in range(d):
            if i != j and (a[i][j] != 0 or p[i][j] != 0):
                return None
    omega = min(-a[i][i] if p[i][i] == 1 else a[i][i] for i in range(d))
    if omega <= 0:
        raise NoDichotomyError(
            f"no dichotomy at this projection: the slowest mode decays at rate {omega} <= 0"
        )
    return Fraction(1), Fraction(omega)


def spot_check_dichotomy(sys: DichotomousSystem) -> float:
    """Worst ratio of observed to declared decay over 9 times in
    [0, 4/omega] and 16 random unit probe vectors.  At most 1 (up to
    round-off) for a valid system."""
    probes = np.random.default_rng(0).standard_normal((sys.dim, 16))
    probes /= np.linalg.norm(probes, axis=0, keepdims=True)
    worst = 0.0
    # a K near the smallest double makes a ratio inf, which fails the
    # check without a warning
    with np.errstate(over="ignore", divide="ignore"):
        for t in np.linspace(0.0, 4.0 / sys.omega, 9):
            bound = sys.k * np.exp(-sys.omega * t)
            if sys.rank_stable:
                norms = np.linalg.norm(sys.stable_matrix(t) @ probes, axis=0)
                worst = max(worst, float(norms.max()) / bound)
            if sys.rank_unstable:
                norms = np.linalg.norm(sys.unstable_matrix(-t) @ probes, axis=0)
                worst = max(worst, float(norms.max()) / bound)
    return worst
