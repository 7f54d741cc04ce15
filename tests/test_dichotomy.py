"""Dichotomy module tests.

Closed-form oracles:

- rotation generator [[0, -w], [w, 0]] exponentiates to the rotation
  matrix [[cos wt, -sin wt], [sin wt, cos wt]];
- nilpotent [[0, 1], [0, 0]] exponentiates to [[1, t], [0, 1]] and its
  integral over [0, t] is [[t, t^2/2], [0, t]];
- diag(8, -6) with P = diag(0, 1) decays like e^{-6t} forward on range(P)
  and like e^{-8t} backward on range(I - P);
- an oblique projection built from eigenvectors V = [[1, 1], [0, 1]] with
  eigenvalues (-1, 2) satisfies e^{At}P = e^{-t} P, so the tight envelope
  constants are K = sqrt(2), omega = 1;
- a diagonal A with a 0/1 diagonal P has the exact constants K = 1 and
  omega = the slowest |a_ii| (``diagonal_constants``); the sampled spot
  check and the fitted estimate are the oracles it must agree with.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dichotomy_oracles import estimate_constants
from levyap.config import build_system, preset_config, preset_names
from levyap.dichotomy import (
    DichotomousSystem,
    DichotomyError,
    MatrixExpOverflowError,
    NoDichotomyError,
    diagonal_constants,
    integrated_exp,
    matrix_exp,
    spot_check_dichotomy,
)


def example_system():
    return DichotomousSystem.create(
        np.diag([8.0, -6.0]), np.diag([0.0, 1.0]), 1.0, 6.0
    )


def oblique_system():
    v = np.array([[1.0, 1.0], [0.0, 1.0]])
    vinv = np.linalg.inv(v)
    a = v @ np.diag([-1.0, 2.0]) @ vinv
    p = v @ np.diag([1.0, 0.0]) @ vinv
    return DichotomousSystem.create(a, p, 2.0, 1.0)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------


def test_matrix_exp_rotation_oracle():
    w = 0.7
    a = np.array([[0.0, -w], [w, 0.0]])
    for t in (0.0, 0.3, 2.1, -1.4):
        expected = np.array(
            [[np.cos(w * t), -np.sin(w * t)], [np.sin(w * t), np.cos(w * t)]]
        )
        assert np.allclose(matrix_exp(a, t), expected, atol=1e-12)


def test_matrix_exp_nilpotent_oracle():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = 0.37
    assert np.allclose(matrix_exp(a, t), [[1.0, t], [0.0, 1.0]], atol=1e-15)
    assert np.allclose(
        integrated_exp(a, t), [[t, t**2 / 2], [0.0, t]], atol=1e-15
    )


def test_integrated_exp_zero_generator():
    t = 1.3
    assert np.allclose(integrated_exp(np.zeros((3, 3)), t), t * np.eye(3))


def test_integrated_exp_matches_derivative_relation():
    # A @ Phi(t) = e^{At} - I for invertible and singular A alike
    gen = np.random.default_rng(0)
    for _ in range(5):
        a = gen.standard_normal((3, 3))
        a[2] = a[0] + a[1]  # force singularity
        t = 0.8
        phi = integrated_exp(a, t)
        assert np.allclose(a @ phi, matrix_exp(a, t) - np.eye(3), atol=1e-12)


def test_matrix_exp_overflow_guard():
    with pytest.raises(MatrixExpOverflowError, match="overflow"):
        matrix_exp(np.diag([100.0, -1.0]), 10.0)
    with pytest.raises(MatrixExpOverflowError, match="non-finite"):
        matrix_exp(np.array([[np.nan]]), 1.0)


def test_overflow_guard_bounds_growth_not_norm():
    """The guard raises on growth beyond e^700, never on decay: a diagonal
    At by its largest entry, any other by its logarithmic norm."""
    from scipy.linalg import expm

    with pytest.raises(MatrixExpOverflowError, match="overflow"):
        matrix_exp(np.diag([800.0]), 1.0)
    with pytest.raises(MatrixExpOverflowError, match="overflow"):
        integrated_exp(np.diag([800.0, -1.0]), 1.0)
    assert matrix_exp(np.diag([-800.0]), 1.0)[0, 0] == pytest.approx(0.0, abs=1e-300)
    assert integrated_exp(np.diag([-800.0]), 1.0)[0, 0] == pytest.approx(1 / 800, rel=1e-15)
    assert matrix_exp(np.diag([800.0]), -1.0)[0, 0] == pytest.approx(0.0, abs=1e-300)
    # ||A|| = 1000, but mu_2(A) = 499: e^{At} = e^{-t} [[1, 1000 t], [0, 1]]
    a = np.array([[-1.0, 1000.0], [0.0, -1.0]])
    np.testing.assert_array_equal(matrix_exp(a, 1.0), expm(a))
    np.testing.assert_allclose(
        matrix_exp(a, 1.0), np.exp(-1.0) * np.array([[1.0, 1000.0], [0.0, 1.0]]), rtol=1e-12
    )
    assert np.isfinite(integrated_exp(a, 1.0)).all()
    with pytest.raises(MatrixExpOverflowError, match="overflow"):
        matrix_exp(np.array([[-1.0, 2000.0], [0.0, -1.0]]), 1.0)  # mu_2 = 999


# every diagonal entry of A in the shipped presets' systems
PRESET_RATES = (8.0, -6.0, -1.0, 2.5, 1.5, -1.5, -6.5, -13.5, -22.5, -33.5, -46.5)


def test_matrix_exp_of_diagonal_input_is_scipys_expm():
    """Entrywise e^{a_ii t} is the float operation scipy's expm applies
    to diagonal input, so the bits agree."""
    from scipy.linalg import expm

    cases = [np.diag(PRESET_RATES), np.diag([0.0, -3.0, 0.0]), np.array([[-46.5]])]
    for a in cases:
        for t in (0.0, 2.0**-11, 1 / 32, 0.25, 1.0, 16.0, -2.0**-8, -0.25):
            if np.max(a) * t > 700:
                continue
            got = matrix_exp(a, t)
            ref = expm(a * t)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def exact_integrated_exp(rate: float, t: float) -> Fraction:
    """(e^{a t} - 1) / a, or t at a = 0, to 2^-120 relative, from the
    exponential series in exact rationals."""
    a, t = Fraction(rate), Fraction(t)
    if a == 0:
        return t
    x = abs(a * t)
    total, term, k = Fraction(0), Fraction(1), 0
    while term > Fraction(1, 2**120):
        total += term
        k += 1
        term = term * x / k
    e_at = total if a * t >= 0 else 1 / total
    return (e_at - 1) / a


def test_integrated_exp_of_diagonal_input_matches_exact_kernel():
    """The closed form expm1(a t) / a is within 2 ulp of the exact kernel
    (the error of expm1 plus the rounding of the division) at every
    preset rate and step, in the decaying direction S uses
    (t = h on a stable rate, t = -h on an unstable one) and the other.
    In the decaying direction it is within 2 ulp of the augmented-matrix
    expm wherever |a h| <= 2, which covers every preset at its own step
    (galerkin_heat's fastest mode, 46.5 at h = 1/32, has |a h| = 1.45).
    Beyond that the augmented expm drifts from the exact value by up to
    ~100 ulp, and in the growing direction by up to ~7000."""
    from scipy.linalg import expm

    for rate in PRESET_RATES:
        for k in range(2, 12):
            h = 2.0**-k
            for t in (h, -h):
                got = integrated_exp(np.array([[rate]]), t)[0, 0]
                exact = exact_integrated_exp(rate, t)
                ulp = np.spacing(abs(float(exact)))
                assert abs(Fraction(got) - exact) <= 2 * ulp
                aug = expm(np.array([[rate, 1.0], [0.0, 0.0]]) * t)[0, 1]
                if rate * t <= 0 and abs(rate * h) <= 2:
                    assert abs(got - aug) <= 2 * ulp
    got = integrated_exp(np.diag([0.0, -6.0]), 0.375)
    assert got[0, 0] == 0.375 and got[0, 1] == 0.0 and got[1, 0] == 0.0


@given(t=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_matrix_exp_group_inverse(t):
    a = np.array([[0.2, 1.0], [-0.5, -0.3]])
    prod = matrix_exp(a, t) @ matrix_exp(a, -t)
    assert np.allclose(prod, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_create_rejects_non_idempotent_projection():
    with pytest.raises(DichotomyError, match="idempotent"):
        DichotomousSystem.create(np.eye(2), np.array([[1.0, 0.1], [0.0, 1.0]]), 1.0, 1.0)


def test_create_rejects_non_commuting_projection():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = np.diag([1.0, 0.0])
    with pytest.raises(DichotomyError, match="commute"):
        DichotomousSystem.create(a, p, 1.0, 1.0)


def test_create_rejects_bad_constants():
    a, p = np.diag([-1.0, -1.0]), np.eye(2)
    with pytest.raises(DichotomyError, match="K"):
        DichotomousSystem.create(a, p, 0.0, 1.0)
    with pytest.raises(DichotomyError, match="omega"):
        DichotomousSystem.create(a, p, 1.0, -2.0)


def test_create_rejects_too_tight_constants():
    # declared decay 7 but the true stable rate is 6
    with pytest.raises(DichotomyError, match="violated"):
        DichotomousSystem.create(np.diag([8.0, -6.0]), np.diag([0.0, 1.0]), 1.0, 7.0)


def test_spot_check_within_declared_bounds():
    assert spot_check_dichotomy(example_system()) <= 1.0 + 1e-9
    assert spot_check_dichotomy(oblique_system()) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def test_projected_propagators_match_direct_formula():
    sys = example_system()
    t = 0.5
    assert np.allclose(
        sys.stable_matrix(t), matrix_exp(sys.a, t) @ sys.p, atol=1e-12
    )
    assert np.allclose(
        sys.unstable_matrix(-t), matrix_exp(sys.a, -t) @ sys.j, atol=1e-12
    )


def test_unstable_propagator_avoids_overflow():
    # direct e^{At} at t = -120 overflows through the stable block;
    # the subspace route stays finite
    sys = DichotomousSystem.create(
        np.diag([1.0, -8.0]), np.diag([0.0, 1.0]), 1.0, 1.0
    )
    m = sys.unstable_matrix(-120.0)
    assert np.all(np.isfinite(m))
    assert m[0, 0] == pytest.approx(np.exp(-120.0))


def test_propagator_time_domain_checks():
    sys = example_system()
    with pytest.raises(DichotomyError):
        sys.stable_matrix(-0.1)
    with pytest.raises(DichotomyError):
        sys.unstable_matrix(0.1)
    with pytest.raises(DichotomyError):
        sys.stable_matrix(-1.0) @ np.ones(2)
    with pytest.raises(DichotomyError):
        sys.unstable_matrix(1.0) @ np.ones(2)


@given(
    s=st.floats(min_value=0.0, max_value=1.5),
    t=st.floats(min_value=0.0, max_value=1.5),
)
@settings(max_examples=25, deadline=None)
def test_semigroup_law_on_both_ranges(s, t):
    sys = oblique_system()
    lhs = sys.stable_matrix(s + t)
    rhs = sys.stable_matrix(s) @ sys.stable_matrix(t)
    assert np.allclose(lhs, rhs, atol=1e-10)
    lhs_u = sys.unstable_matrix(-(s + t))
    rhs_u = sys.unstable_matrix(-s) @ sys.unstable_matrix(-t)
    assert np.allclose(lhs_u, rhs_u, atol=1e-10)


def test_propagators_commute_with_projection():
    sys = oblique_system()
    m = sys.stable_matrix(0.7)
    assert np.allclose(m @ sys.p, sys.p @ m, atol=1e-12)
    assert np.allclose(m, sys.p @ m, atol=1e-12)


def test_decay_bounds_on_random_vectors():
    sys = example_system()
    gen = np.random.default_rng(4)
    for t in np.linspace(0.0, 1.5, 7):
        for _ in range(5):
            v = gen.standard_normal(2)
            assert np.linalg.norm(sys.stable_matrix(t) @ v) <= (
                sys.k * np.exp(-sys.omega * t) * np.linalg.norm(v) + 1e-12
            )
            assert np.linalg.norm(sys.unstable_matrix(-t) @ v) <= (
                sys.k * np.exp(-sys.omega * t) * np.linalg.norm(v) + 1e-12
            )


def test_kernel_matrices_match_closed_forms():
    sys = example_system()
    h = 0.01
    km = sys.stable_kernel_matrix(h)
    assert km[1, 1] == pytest.approx((1 - np.exp(-6 * h)) / 6, rel=1e-12)
    assert km[0, 0] == 0.0
    ku = sys.unstable_kernel_matrix(-h)
    assert ku[0, 0] == pytest.approx((1 - np.exp(-8 * h)) / 8, rel=1e-12)


def test_oblique_propagators_are_pinned():
    """The oblique system's halves are 1x1 compressions, so they take the
    closed forms: the propagators keep their values bit for bit, and the
    kernels, once an augmented-matrix expm, stay within 2 ulp of it."""
    sys = oblique_system()
    np.testing.assert_array_equal(
        sys.stable_matrix(0.25), [[0.7788007830714047, -0.7788007830714047], [0.0, 0.0]]
    )
    np.testing.assert_array_equal(
        sys.unstable_matrix(-0.25), [[0.0, 0.6065306597126333], [0.0, 0.6065306597126333]]
    )
    for got, pinned in (
        (sys.stable_kernel_matrix(0.25), [[0.2211992169285951, -0.2211992169285951], [0.0, 0.0]]),
        (sys.unstable_kernel_matrix(-0.25), [[0.0, 0.1967346701436833], [0.0, 0.1967346701436833]]),
        (
            sys.stable_kernel_matrix(1 / 32),
            [[0.030766765523655915, -0.030766765523655915], [0.0, 0.0]],
        ),
    ):
        pinned = np.array(pinned)
        assert np.all(np.abs(got - pinned) <= 2 * np.spacing(np.abs(pinned)))


def test_degenerate_projections():
    # P = I: no unstable range, backward propagator vanishes
    sys = DichotomousSystem.create(np.diag([-2.0, -3.0]), np.eye(2), 1.0, 2.0)
    assert sys.rank_unstable == 0
    assert np.allclose(sys.unstable_matrix(-1.0), 0.0)
    # P = 0: no stable range
    sys0 = DichotomousSystem.create(np.diag([2.0, 3.0]), np.zeros((2, 2)), 1.0, 2.0)
    assert sys0.rank_stable == 0
    assert np.allclose(sys0.stable_matrix(1.0), 0.0)


# ---------------------------------------------------------------------------
# constant estimation
# ---------------------------------------------------------------------------


def test_estimate_constants_recovers_example_values():
    est = estimate_constants(example_system(), np.linspace(0.0, 2.0, 50))
    assert abs(est.k_hat - 1.0) <= 0.01
    assert abs(est.omega_hat - 6.0) <= 0.05
    assert est.max_residual < 1e-9


def test_estimate_constants_full_stable_system():
    sys = DichotomousSystem.create(np.diag([-2.0, -3.0]), np.eye(2), 1.0, 2.0)
    est = estimate_constants(sys, np.linspace(0.0, 3.0, 40))
    assert est.omega_hat == pytest.approx(2.0, abs=1e-6)
    assert est.k_hat == pytest.approx(1.0, abs=1e-6)


def test_estimate_constants_oblique_envelope():
    est = estimate_constants(oblique_system(), np.linspace(0.0, 2.0, 30))
    assert est.omega_hat == pytest.approx(1.0, abs=1e-6)
    assert est.k_hat == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_estimate_envelope_dominates_samples():
    sys = oblique_system()
    grid = np.linspace(0.0, 2.0, 30)
    est = estimate_constants(sys, grid)
    for t in grid:
        norm = max(
            np.linalg.norm(sys.stable_matrix(t), 2),
            np.linalg.norm(sys.unstable_matrix(-t), 2),
        )
        assert norm <= est.k_hat * np.exp(-est.omega_hat * t) * (1 + 1e-9)


def test_estimate_detects_missing_dichotomy():
    sys = DichotomousSystem(np.diag([0.0, -1.0]), np.eye(2), 1.1, 0.1)
    with pytest.raises(NoDichotomyError, match="no dichotomy"):
        estimate_constants(sys, np.linspace(0.0, 5.0, 20))


def test_estimate_with_trial_vectors():
    sys = example_system()
    probes = np.eye(2)
    est = estimate_constants(sys, np.linspace(0.0, 1.0, 20), trial_vectors=probes)
    assert est.omega_hat == pytest.approx(6.0, abs=1e-9)


# ---------------------------------------------------------------------------
# exact constants of diagonal systems
# ---------------------------------------------------------------------------


def diag(*entries):
    return [[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)]


def certified_system(a, p):
    """The float system of exact diagonal (a, p) under its certified
    constants, without the spot check, so the tests can run it."""
    k, omega = diagonal_constants(a, p)
    return DichotomousSystem(
        np.array(a, dtype=float), np.array(p, dtype=float), float(k), float(omega)
    )


def test_diagonal_constants_of_example():
    assert diagonal_constants(diag(8, -6), diag(0, 1)) == (1, 6)
    sys = certified_system(diag(8, -6), diag(0, 1))
    assert spot_check_dichotomy(sys) <= 1.0 + 1e-9
    # tight: the slowest stable and unstable modes meet the bound exactly
    for t in (0.0, 0.3, 1.1):
        assert np.linalg.norm(sys.stable_matrix(t) @ [0.0, 1.0]) == pytest.approx(
            np.exp(-6.0 * t), rel=1e-13
        )
        assert np.linalg.norm(sys.unstable_matrix(-t) @ [1.0, 0.0]) <= np.exp(-6.0 * t)


@pytest.mark.parametrize("name", preset_names())
def test_spot_check_holds_under_certified_constants_on_presets(name):
    cfg = preset_config(name).system
    sysd = build_system(cfg)
    k, omega = diagonal_constants(cfg.a, cfg.p)
    assert (sysd.k, sysd.omega) == (float(k), float(omega))  # declared = certified
    assert spot_check_dichotomy(sysd) <= 1.0 + 1e-9
    # the sampled probes may miss the slowest mode; the basis vectors do not
    grid = np.linspace(0.0, 4.0 / sysd.omega, 9)
    est = estimate_constants(sysd, grid, trial_vectors=np.eye(sysd.dim))
    assert est.k_hat <= sysd.k * (1 + 1e-12)
    assert est.omega_hat == pytest.approx(sysd.omega, rel=1e-12)


@pytest.mark.parametrize("name", preset_names())
def test_certified_system_builds_the_arrays_create_checks(name):
    """A diagonal system built from its exact entries runs no float check
    and builds its arrays on first use.  They are bit for bit those of
    ``create`` on the same entries as floats, whose checks it passes."""
    sysd = build_system(preset_config(name).system)
    lazy = ("a", "p", "j", "basis_stable", "gen_stable", "basis_unstable", "gen_unstable")
    assert not set(lazy) & set(vars(sysd))
    ref = DichotomousSystem.create(sysd.a, sysd.p, sysd.k, sysd.omega)
    for attr in lazy:
        got, want = getattr(sysd, attr), getattr(ref, attr)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), attr


def test_galerkin_fit_agrees_with_exact_constants():
    sysd = build_system(preset_config("galerkin_heat").system)
    assert (sysd.k, sysd.omega) == (1.0, 1.5)
    grid = np.linspace(0.0, 4.0 / 1.5, 33)
    est = estimate_constants(sysd, grid)
    assert est.max_residual < 1e-9
    # the fitted envelope log K - omega t against the exact -3t/2; the
    # 1e-12 covers the round-off in the sampled log norms the fit sees
    gap = np.abs(np.log(est.k_hat) - est.omega_hat * grid + 1.5 * grid)
    assert gap.max() <= est.max_residual + 1e-12


def test_diagonal_constants_degenerate_projections():
    # P = I: only stable modes, omega the slowest of them
    assert diagonal_constants(diag(-2, -3), diag(1, 1)) == (1, 2)
    sys = certified_system(diag(-2, -3), diag(1, 1))
    assert sys.rank_unstable == 0 and spot_check_dichotomy(sys) <= 1.0 + 1e-9
    # P = 0: only unstable modes
    assert diagonal_constants(diag(2, 3), diag(0, 0)) == (1, 2)
    sys0 = certified_system(diag(2, 3), diag(0, 0))
    assert sys0.rank_stable == 0 and spot_check_dichotomy(sys0) <= 1.0 + 1e-9


def test_diagonal_constants_reject_missing_decay():
    with pytest.raises(NoDichotomyError, match="no dichotomy"):
        diagonal_constants(diag(0, -1), diag(1, 1))  # zero eigenvalue
    with pytest.raises(NoDichotomyError, match="no dichotomy"):
        diagonal_constants(diag(8, -6), diag(1, 0))  # projection on the wrong side


def test_diagonal_constants_are_exact_for_inexact_floats():
    third = Fraction(1, 3)
    assert float(third) != third
    k, omega = diagonal_constants(diag(-third, 2), diag(1, 0))
    assert (k, omega) == (1, third) and isinstance(omega, Fraction)
    sys = certified_system(diag(-third, 2), diag(1, 0))
    assert spot_check_dichotomy(sys) <= 1.0 + 1e-9


def test_diagonal_constants_decline_other_systems():
    assert diagonal_constants([[1, 1], [0, -1]], diag(0, 1)) is None  # A not diagonal
    assert diagonal_constants(diag(1, -1), [[0, 1], [0, 1]]) is None  # P not diagonal
    assert diagonal_constants(diag(-1, -1), diag(1, Fraction(1, 2))) is None  # P not 0/1
    assert diagonal_constants(diag(-1, -1), diag(1)) is None  # shapes differ
    assert diagonal_constants([[-1, 0]], [[1, 0]]) is None  # not square
