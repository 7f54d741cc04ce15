"""The exact law of a scalar Ornstein-Uhlenbeck process driven by Lévy
noise, which only the tests compute: an oracle for the law of the
solver's bounded solution that shares no code with its discretisation.

The bounded solution of dX = -aX dt + dL, a > 0, is the integral of
e^{-a(t - s)} dL(s) over the past, and that of dX = aX dt + dL is minus
the integral of e^{-a(s - t)} dL(s) over the future.  Cut at a horizon T,
as the solver's truncated window cuts it, each is in law
sign * int_0^T e^{-au} dL(u), sign = +1 on the stable half and -1 on the
unstable one, and its characteristic function is

    phi(xi) = exp(int_0^T psi(sign e^{-au} xi) du)

(Sato, *Lévy Processes and Infinitely Divisible Distributions*, §17),
where E e^{i zeta L(1)} = e^{psi(zeta)} (Lévy-Khintchine).  Here L is a
scalar Wiener part sigma W plus small jumps c_s X, compensated, and large
jumps c_l X, not compensated, with marks X uniform on intervals, for
which psi is in closed form.  Substituting v = e^{-au} turns the integral
into int over [e^{-aT}, 1] of psi(sign v xi) / (a v) dv, whose integrand
is smooth up to v = 0 (psi(0) = 0), so a Gauss-Legendre rule takes it to
double precision, for any T up to infinity.
"""

import math

import numpy as np

from levyap.noise import LevyProcessSpec

_NODES = 400


def _uniform_cf(theta: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """E e^{i theta X} of X uniform on [lo, hi], for theta != 0."""
    return (np.exp(1j * theta * hi) - np.exp(1j * theta * lo)) / (1j * theta * (hi - lo))


def levy_exponent(zeta: np.ndarray, spec: LevyProcessSpec, sigma: float, small: float,
                  large: float) -> np.ndarray:
    """psi(zeta) of L = sigma W + small * (compensated small jumps) + large
    * (large jumps), for the scalar noise ``spec``: Wiener covariance
    ``spec.covariance`` and jump components with uniform-interval marks,
    whose sizes are the marks times ``small`` or ``large`` by region."""
    q = float(np.asarray(spec.covariance, dtype=float)[0, 0])
    psi = -0.5 * q * (sigma * zeta) ** 2 + 0j
    for comp in spec.jumps:
        lo, hi = comp.marks
        if comp.region == "small":
            theta = small * zeta
            psi = psi + comp.rate * (_uniform_cf(theta, lo, hi) - 1.0 - 0.5j * theta * (lo + hi))
        else:
            theta = large * zeta
            psi = psi + comp.rate * (_uniform_cf(theta, lo, hi) - 1.0)
    return psi


def ou_characteristic_function(xi: float, a: float, sign: int, horizon: float,
                               spec: LevyProcessSpec, sigma: float, small: float,
                               large: float) -> complex:
    """phi(xi) of sign * int_0^horizon e^{-au} dL(u), the law at one time
    of the bounded solution of dX = -sign a X dt + dL cut at ``horizon``
    (``math.inf`` for none); L as in ``levy_exponent``.  A
    ``_NODES``-point Gauss-Legendre rule in v = e^{-au}."""
    v0 = math.exp(-a * horizon)
    x, w = np.polynomial.legendre.leggauss(_NODES)
    v = v0 + (1.0 - v0) * (x + 1.0) / 2.0
    integrand = levy_exponent(sign * v * xi, spec, sigma, small, large) / (a * v)
    return complex(np.exp((1.0 - v0) / 2.0 * np.dot(w, integrand)))
