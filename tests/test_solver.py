"""Solver tests: the exact condition arithmetic (``config.check_conditions``),
the forward oracle (``simulate_mild``) against closed forms and against
the Picard solve, and the integral operator against telescoping /
contraction / equivariance oracles."""

import contextlib
import hashlib
import io
import json
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _ensemble_oracles import apply_S, dense, grid_index, l2_increment, simulate_mild
from _grid import (
    ensemble_grid,
    galerkin_modes,
    preset_coefficients,
    steps,
    window_steps,
)
from _noise_oracles import shifted
from levyap.coefficients import CoefficientSet, CoefficientTerm, QuasiPeriodicSignal
from levyap.config import (
    BLOCK_PATHS,
    ConditionReport,
    ConfigError,
    build_coefficients,
    build_system,
    check_conditions,
    load_config,
    preset_config,
    validate_config,
)
from levyap.dichotomy import DichotomousSystem
from levyap.noise import (
    JumpComponent,
    LevyProcessSpec,
    NoiseDraw,
    PointMark,
    UniformAnnulusMark,
    UniformIntervalMark,
    sample_noise,
)
from levyap.solver import (
    PathEnsemble,
    SolverError,
    _Plan,
    _Scratch,
    _blocks,
    _draw_block,
    _scan_block,
    _sweep_block,
    picard_solve,
)

# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


def benchmark_system() -> DichotomousSystem:
    return DichotomousSystem.create(
        np.diag([8.0, -6.0]), np.diag([0.0, 1.0]), k=1.0, omega=6.0
    )


def benchmark_spec() -> LevyProcessSpec:
    return LevyProcessSpec(
        dim=1,
        covariance=np.eye(1),
        jumps=(
            JumpComponent(rate=1.5, marks=UniformIntervalMark(-0.9, 0.9)),
            JumpComponent(rate=1.0, marks=UniformIntervalMark(1.0, 1.5)),
        ),
    )


def zero_coefficients(d: int, q: int) -> CoefficientSet:
    empty = tuple(() for _ in range(d))
    return CoefficientSet(
        dim_state=d,
        dim_noise=q,
        drift=empty,
        diffusion=tuple(tuple(() for _ in range(q)) for _ in range(d)),
        jump_small=empty,
        jump_large=empty,
        lipschitz=Fraction(1, 64),
    )


def constant_drift_coefficients(c1: float, c2: float) -> CoefficientSet:
    return CoefficientSet(
        dim_state=2,
        dim_noise=1,
        drift=(
            (CoefficientTerm(c1, "const"),),
            (CoefficientTerm(c2, "const"),),
        ),
        diffusion=(((),), ((),)),
        jump_small=((), ()),
        jump_large=((), ()),
        lipschitz=Fraction(1, 64),
    )


def scalar_system(rate: float = 1.0) -> DichotomousSystem:
    return DichotomousSystem.create(
        np.array([[-rate]]), np.eye(1), k=1.0, omega=rate
    )


def wiener_only_spec(dim: int = 1) -> LevyProcessSpec:
    return LevyProcessSpec(dim=dim, covariance=np.eye(dim))


# ---------------------------------------------------------------------------
# condition arithmetic
# ---------------------------------------------------------------------------


class TestCheckConditions:
    def test_benchmark_constants_exact(self):
        rep = check_conditions(1, 6, Fraction(1, 64), 1)
        assert isinstance(rep, ConditionReport)
        assert rep.lhs == Fraction(5, 12)
        assert rep.threshold_existence == 4
        assert rep.threshold_distribution == 2
        assert rep.eta == Fraction(5, 48)
        assert rep.verdict_existence and rep.verdict_distribution
        assert rep.eta_below_one

    def test_verdict_flips_exactly_at_critical_jump_bound(self):
        crit = Fraction(59, 2)
        below = check_conditions(1, 6, Fraction(1, 64), crit - Fraction(1, 10**12))
        at = check_conditions(1, 6, Fraction(1, 64), crit)
        above = check_conditions(1, 6, Fraction(1, 64), 30)
        assert below.verdict_existence
        assert not at.verdict_existence
        assert not above.verdict_existence
        # the weak inequality (contraction alone) still holds at b = 30
        assert above.eta_below_one
        assert above.lhs == Fraction(73, 36)

    def test_floats_convert_exactly(self):
        rep = check_conditions(1.0, 6.0, 0.015625, 1.0)
        assert rep.eta == Fraction(5, 48)
        assert rep.lhs == Fraction(5, 12)

    def test_report_dict(self):
        d = check_conditions(1, 6, Fraction(1, 64), 1).as_dict()
        assert d["lhs"] == "5/12"
        assert d["eta"] == "5/48"
        assert d["threshold_existence"] == "4"
        assert d["threshold_distribution"] == "2"
        assert d["verdict_existence"] is True
        assert abs(d["eta_float"] - 5.0 / 48.0) < 1e-15

    @pytest.mark.parametrize(
        "args",
        [
            (0, 6, Fraction(1, 64), 1),
            (1, 0, Fraction(1, 64), 1),
            (1, 6, 0, 1),
            (1, 6, Fraction(1, 64), -1),
            (float("nan"), 6, Fraction(1, 64), 1),
        ],
    )
    def test_rejects_bad_inputs(self, args):
        with pytest.raises(ConfigError) as exc:
            check_conditions(*args)
        assert str(exc.value) in (
            "k, omega and lipschitz must be positive",
            "jump_bound must be nonnegative",
            "k must be finite",
        )

    @given(
        k=st.fractions(Fraction(1, 100), Fraction(10)),
        omega=st.fractions(Fraction(1, 100), Fraction(20)),
        lip=st.fractions(Fraction(1, 10**6), Fraction(1, 2)),
        b=st.fractions(Fraction(0), Fraction(100)),
    )
    @settings(max_examples=60, deadline=None)
    def test_identities(self, k, omega, lip, b):
        rep = check_conditions(k, omega, lip, b)
        # eta is the lhs rescaled by the weak threshold
        assert rep.eta == rep.lhs / rep.threshold_existence
        assert rep.eta_below_one == (rep.lhs < rep.threshold_existence)
        assert rep.threshold_existence == 2 * rep.threshold_distribution
        # the strong inequality implies the weak one, so the joint
        # existence verdict coincides with the distribution verdict
        assert rep.verdict_existence == rep.verdict_distribution


# ---------------------------------------------------------------------------
# ensembles and moments
# ---------------------------------------------------------------------------


class TestPathEnsemble:
    def test_grid_and_index(self):
        ens = PathEnsemble(h=0.25, k_lo=-2, values=np.zeros((3, 5, 2)), dim=2, coords=(0, 1))
        assert ens.n_paths == 3 and ens.n_steps == 4 and ens.dim == 2
        np.testing.assert_allclose(ensemble_grid(ens), [-0.5, -0.25, 0.0, 0.25, 0.5])
        assert grid_index(ens, 0.25) == 3
        assert grid_index(ens, -0.5) == 0

    def test_moments_by_hand(self):
        v = np.zeros((2, 3, 2))
        v[0, 1] = [3.0, 4.0]  # |.|^2 = 25
        v[1, 1] = [0.0, 1.0]  # |.|^2 = 1
        v[0, 2] = [1.0, 0.0]
        ens = PathEnsemble(h=1.0, k_lo=0, values=v, dim=2, coords=(0, 1))
        moment, _ = _sup_mean_squares(ens.values, np.zeros_like(v))
        assert moment == pytest.approx(13.0)  # (25 + 1) / 2
        assert l2_increment(ens, 1.0, 1.0) == 0.0
        # increments: path0 (3,4)->(1,0): 20; path1 (0,1)->(0,0): 1
        assert l2_increment(ens, 2.0, 1.0) == pytest.approx(10.5)


class TestNoiseSample:
    def test_shifted_all_paths(self):
        spec = benchmark_spec()
        sample = sample_noise(spec, *window_steps(-1.0, 2.0, 0.25), 0.25, 3, seed=9)
        moved = shifted(sample, steps(1.0, sample.h))
        assert moved.n_paths == 3
        assert moved.grid[0] == -2.0
        assert moved.grid[-1] == 1.0
        np.testing.assert_array_equal(moved.dW, sample.dW)


# ---------------------------------------------------------------------------
# forward integrator
# ---------------------------------------------------------------------------


class TestSimulateMild:
    def test_zero_coefficients_reproduce_linear_flow(self):
        sysd = scalar_system(1.0)
        noise = sample_noise(
            wiener_only_spec(), *window_steps(0.0, 2.0, 1.0 / 64), 1.0 / 64, 3, seed=5
        )
        ens = simulate_mild(sysd, zero_coefficients(1, 1), noise, np.array([2.0]))
        expected = 2.0 * np.exp(-noise.grid)
        assert np.abs(ens.values[:, :, 0] - expected).max() < 1e-12

    def test_matches_handrolled_recursion(self):
        """Lock the update rule: full linear flow applied to state plus
        drift, Wiener, compensated-small-jump and large-jump increments,
        with coefficients at the pre-jump grid state."""
        from levyap.coefficients import compensator_terms, diffusion_terms, drift_terms
        from levyap.coefficients import jump_terms, point_values
        from levyap.dichotomy import matrix_exp

        sysd = scalar_system(2.0)
        spec = LevyProcessSpec(
            dim=1,
            covariance=np.eye(1),
            jumps=(
                JumpComponent(rate=30.0, marks=UniformIntervalMark(-0.5, 0.5)),
                JumpComponent(rate=20.0, marks=UniformIntervalMark(1.0, 2.0)),
            ),
        )
        cs = CoefficientSet(
            dim_state=1,
            dim_noise=1,
            drift=((CoefficientTerm(0.4, "bounded_ratio"),),),
            diffusion=(((CoefficientTerm(0.2, "const"),),),),
            jump_small=((CoefficientTerm(0.3, "linear", mark_weights=(1.0,)),),),
            jump_large=((CoefficientTerm(0.1, "const", mark_weights=(1.0,)),),),
            lipschitz=Fraction(1, 2),
        )
        h = 1.0 / 16
        noise = sample_noise(spec, *window_steps(0.0, 0.5, h), h, 2, seed=3)
        ens = simulate_mild(sysd, cs, noise, np.array([0.7]))

        exp_ah = matrix_exp(sysd.a, h)
        for p in range(noise.n_paths):
            y = np.array([[0.7]])
            mine = noise.event_path == p
            steps = noise.event_step[mine]
            marks = noise.event_marks[mine]
            regions = noise.event_region[mine]
            for k in range(noise.n_steps):
                t = noise.grid[k]
                ts = np.array([t])
                inc = point_values(drift_terms(cs, ts), y) * h
                g = point_values([row[0] for row in diffusion_terms(cs, ts)], y)
                inc += g * noise.dW[p, k]
                inc -= h * point_values(compensator_terms(cs, spec, ts), y)
                for e in np.nonzero(steps == k)[0]:
                    x = marks[e : e + 1]
                    tmap = cs.jump_small if regions[e] == 0 else cs.jump_large
                    inc += point_values(jump_terms(tmap, np.array([t]), x), y)
                y = (y + inc) @ exp_ah.T
                np.testing.assert_array_equal(ens.values[p, k + 1], y[0])

    def test_result_is_pinned(self):
        """A sha256 of the values of two small forward runs, taken while
        the step evaluated its coefficients with the grid evaluators that
        the prepared terms replaced: example41 on the benchmark system,
        and a set on two-dimensional noise whose diffusion row 0 has both
        noise columns, with both jump regions and mark-weighted jump
        terms.  Any change to the rounding of the step changes them."""
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 2.0, 1.0 / 32), 1.0 / 32, 24, seed=41
        )
        cs = preset_coefficients("example41")
        ens = simulate_mild(benchmark_system(), cs, noise, np.zeros(2))
        assert hashlib.sha256(ens.values.tobytes()).hexdigest() == (
            "4af3b28443f14c9996d34050d5ff3ac3c4b40cfb22cc12daef61d9b18e1afa00"
        )

        cs = _signal_jump_coefficients()
        sysd = DichotomousSystem.create(np.diag([-1.0, -3.0]), np.eye(2), k=1.0, omega=1.0)
        noise = sample_noise(
            _two_dim_spec(), *window_steps(-1.0, 1.0, 1.0 / 32), 1.0 / 32, 24, seed=1041
        )
        assert set(noise.event_region) == {0, 1}
        ens = simulate_mild(sysd, cs, noise, np.array([0.5, -0.25]))
        assert hashlib.sha256(ens.values.tobytes()).hexdigest() == (
            "1db3b0032dde01fd5d5a315246726371c56b6533f3838d99e21a27b9fdbd9c0f"
        )

    def test_blow_up_reports_path_and_time(self):
        sysd = scalar_system(1.0)
        noise = sample_noise(wiener_only_spec(), *window_steps(0.0, 1.0, 0.25), 0.25, 2, seed=1)
        huge = CoefficientSet(
            dim_state=1,
            dim_noise=1,
            drift=((CoefficientTerm(1e12, "const"),),),
            diffusion=(((),),),
            jump_small=((),),
            jump_large=((),),
            lipschitz=Fraction(1, 64),
        )
        with pytest.raises(SolverError, match="blew up at t = 0.25 on path 0"):
            simulate_mild(sysd, huge, noise, np.zeros(1))

    def test_forced_unstable_coordinate_blows_up(self):
        """A forced coordinate in the unstable range grows at any step:
        only the bounded solution of the Picard solve stays finite."""
        noise = sample_noise(
            wiener_only_spec(), *window_steps(0.0, 4.0, 1.0 / 8), 1.0 / 8, 2, seed=1
        )
        with pytest.raises(SolverError, match="blew up at t = .* on path 0"):
            simulate_mild(
                benchmark_system(), constant_drift_coefficients(1.0, 0.0), noise, np.zeros(2)
            )

    def test_shape_validation(self):
        sysd = scalar_system(1.0)
        noise = sample_noise(wiener_only_spec(), *window_steps(0.0, 1.0, 0.25), 0.25, 2, seed=1)
        with pytest.raises(SolverError):
            simulate_mild(sysd, zero_coefficients(1, 1), noise, np.zeros(3))
        with pytest.raises(SolverError):
            simulate_mild(benchmark_system(), zero_coefficients(1, 1), noise, np.zeros(1))

    def test_ou_mean_against_exact_recursion_and_closed_form(self):
        """Two-layer oracle: the Monte-Carlo mean must match the exact
        deterministic mean recursion to MC accuracy, and that recursion
        must match the convolution closed form to O(h)."""
        a, sigma, m_paths = 1.0, 0.3, 2000
        h = 1.0 / 64
        sysd = scalar_system(a)
        cs = preset_coefficients("ou_forced")
        noise = sample_noise(wiener_only_spec(), *window_steps(0.0, 16.0, h), h, m_paths, seed=21)
        ens = simulate_mild(sysd, cs, noise, np.zeros(1))

        grid = ensemble_grid(ens)
        m_rec = np.zeros(len(grid))
        decay = math.exp(-a * h)
        for k in range(len(grid) - 1):
            m_rec[k + 1] = decay * (m_rec[k] + h * math.sin(math.sqrt(2.0) * grid[k]))
        emp_mean = ens.values[:, :, 0].mean(axis=0)
        mc_sd = sigma / math.sqrt(2 * a) / math.sqrt(m_paths)
        assert np.abs(emp_mean - m_rec).max() < 5 * mc_sd

        s2 = math.sqrt(2.0)
        closed = (np.sin(s2 * grid) - s2 * np.cos(s2 * grid) + s2 * np.exp(-grid)) / 3.0
        assert np.abs(m_rec - closed).max() < 2.0 * h

        tail = grid >= 8.0
        emp_var = ens.values[:, tail, 0].var(axis=0).mean()
        assert emp_var == pytest.approx(sigma**2 / (2 * a), rel=0.15)

    @pytest.mark.parametrize("h", [1.0 / 64, 1.0 / 128])
    def test_forward_run_meets_the_bounded_solution(self, h):
        """ou_forced is fully stable (P = I), so the forward run from zero
        and the Picard fixed point on the same noise are the same process
        up to the two schemes' errors.  Both start at 0: the truncated
        integrals are clipped at the window start.  Over the whole window
        they differ by at most the truncation tail (forcing of amplitude
        1, tail factor e^{-6}) plus a term that halves with h (0.31 h at
        h = 1/64 and 1/128, seeds 7-9)."""
        run = validate_config(preset_config("ou_forced"))
        noise = sample_noise(run.spec, *window_steps(-6.0, 6.0, h), h, 64, seed=7)
        forward = simulate_mild(run.system, run.coefficients, noise, np.zeros(1))
        res = picard_solve(run.system, run.coefficients, noise, tol=1e-24, w=steps(6.0, h))
        assert res.converged
        bounded = res.ensemble.values
        assert not forward.values[:, 0].any() and not bounded[:, 0].any()
        tail = res.tail_report["tail_factor"]
        assert tail == pytest.approx(math.exp(-6.0), rel=1e-12)
        assert np.abs(forward.values - bounded).max() <= tail + 0.5 * h


# ---------------------------------------------------------------------------
# the integral operator
# ---------------------------------------------------------------------------


def _random_ensemble(noise, dim: int, seed: int, scale=1.0) -> PathEnsemble:
    gen = np.random.default_rng(seed)
    vals = scale * gen.normal(size=(noise.n_paths, noise.n_steps + 1, dim))
    return PathEnsemble(h=noise.h, k_lo=noise.k_lo, values=vals, dim=dim, coords=range(dim))


class TestApplyS:
    def test_zero_coefficients_map_to_zero(self):
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 2.0, 1.0 / 64), 1.0 / 64, 4, seed=2
        )
        ens = _random_ensemble(noise, 2, seed=0)
        out, report = apply_S(sysd, zero_coefficients(2, 1), noise, ens, w=steps(1.0, noise.h))
        assert out.coords == () and np.abs(dense(out)).max() == 0.0
        assert report["truncation"] == 1.0
        assert report["tail_factor"] == pytest.approx(np.exp(-6.0) / 6.0)

    def test_constant_drift_recovers_closed_form(self):
        """For drift (c1, c2) and the block-diagonal benchmark system the
        bounded solution is the constant (-c1/8, c2/6); the one-step
        kernel telescopes exactly, so the only interior error is the
        truncation tail."""
        c1, c2 = 0.7, -1.3
        sysd = benchmark_system()
        t_c = 1.5
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 4.0, 1.0 / 64), 1.0 / 64, 3, seed=4
        )
        res = picard_solve(
            sysd, constant_drift_coefficients(c1, c2), noise, tol=1e-26, w=steps(t_c, noise.h)
        )
        assert res.converged
        grid = ensemble_grid(res.ensemble)
        interior = (grid >= grid[0] + t_c) & (grid <= grid[-1] - t_c)
        target = np.array([-c1 / 8.0, c2 / 6.0])
        err = np.abs(res.ensemble.values[:, interior, :] - target).max()
        tail = abs(c2) * math.exp(-6.0 * t_c) / 6.0 + abs(c1) * math.exp(-8.0 * t_c) / 8.0
        assert err <= tail + 1e-8

    def test_larger_truncation_tightens_constant_drift_error(self):
        c1, c2 = 1.0, 1.0
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-4.0, 4.0, 1.0 / 32), 1.0 / 32, 2, seed=4
        )
        errs = []
        for t_c in (0.5, 1.0, 2.0):
            res = picard_solve(
                sysd, constant_drift_coefficients(c1, c2), noise, tol=1e-26, w=steps(t_c, noise.h)
            )
            grid = ensemble_grid(res.ensemble)
            interior = (grid >= grid[0] + 2.0) & (grid <= grid[-1] - 2.0)
            target = np.array([-c1 / 8.0, c2 / 6.0])
            errs.append(np.abs(res.ensemble.values[:, interior, :] - target).max())
        assert errs[0] > errs[1] > errs[2]
        # each extra 0.5 of window shaves at least a factor e^{-6*0.5} ~ 0.05
        assert errs[2] < 0.01 * errs[0]

    def test_contraction_on_random_ensemble_pairs(self):
        """The mean-square contraction factor of the benchmark preset is
        eta = 5/48; the discrete operator must respect it."""
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 2.0, 1.0 / 128), 1.0 / 128, 32, seed=8
        )
        eta = float(check_conditions(1, 6, Fraction(1, 64), 1).eta)
        cs = preset_coefficients("example41")
        for seed in (1, 2):
            y1 = _random_ensemble(noise, 2, seed=10 + seed)
            y2 = _random_ensemble(noise, 2, seed=20 + seed, scale=0.5)
            s1, _ = apply_S(sysd, cs, noise, y1, w=steps(1.0, noise.h))
            s2, _ = apply_S(sysd, cs, noise, y2, w=steps(1.0, noise.h))
            num = np.mean(np.sum((s1.values - s2.values) ** 2, axis=2), axis=0).max()
            den = np.mean(np.sum((y1.values - y2.values) ** 2, axis=2), axis=0).max()
            assert num <= eta * den

    def test_shift_equivariance_bitwise_for_autonomous_coefficients(self):
        """Shifting the noise window and the ensemble together re-indexes
        the same increments, so time-constant coefficients give
        bit-identical output values."""
        sysd = benchmark_system()
        cs = CoefficientSet(
            dim_state=2,
            dim_noise=1,
            drift=((CoefficientTerm(0.5, "bounded_ratio", coord=1),), ()),
            diffusion=(((CoefficientTerm(0.1, "const"),),), ((),)),
            jump_small=((), (CoefficientTerm(0.1, "linear", coord=1),)),
            jump_large=((CoefficientTerm(0.05, "const", mark_weights=(1.0,)),), ()),
            lipschitz=Fraction(1, 2),
        )
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 4.0, 1.0 / 32), 1.0 / 32, 5, seed=14
        )
        ens = _random_ensemble(noise, 2, seed=3)
        out, _ = apply_S(sysd, cs, noise, ens, w=steps(1.0, noise.h))

        shifted_noise = shifted(noise, steps(1.0, noise.h))
        shifted_ens = PathEnsemble(
            h=ens.h, k_lo=ens.k_lo - 32, values=ens.values, dim=2, coords=ens.coords
        )
        out_shift, _ = apply_S(sysd, cs, shifted_noise, shifted_ens, w=steps(1.0, shifted_noise.h))
        np.testing.assert_array_equal(out_shift.values, out.values)
        assert ensemble_grid(out_shift)[0] == ensemble_grid(out)[0] - 1.0

    def test_shift_equivariance_with_time_dependent_drift(self):
        """Shifting quasi-periodic coefficients by s in time must commute
        with the operator up to float round-off of the signal algebra."""
        s = 0.5
        root2 = math.sqrt(2.0)
        sysd = scalar_system(1.0)
        base = preset_coefficients("ou_forced")
        cos_s, sin_s = math.cos(root2 * s), math.sin(root2 * s)
        shifted_sig = QuasiPeriodicSignal.parse(
            f"{cos_s!r} * s1 + {sin_s!r} * c1", (root2,)
        )
        shifted_cs = CoefficientSet(
            dim_state=1,
            dim_noise=1,
            drift=((CoefficientTerm(1.0, "const", outer=shifted_sig),),),
            diffusion=base.diffusion,
            jump_small=((),),
            jump_large=((),),
            lipschitz=base.lipschitz,
        )
        noise = sample_noise(
            wiener_only_spec(), *window_steps(-4.0, 4.0, 1.0 / 32), 1.0 / 32, 4, seed=6
        )
        ens = _random_ensemble(noise, 1, seed=5)
        out, _ = apply_S(sysd, base, noise, ens, w=steps(2.0, noise.h))

        shifted_noise = shifted(noise, steps(s, noise.h))
        shifted_ens = PathEnsemble(
            h=ens.h, k_lo=ens.k_lo - 16, values=ens.values, dim=1, coords=ens.coords
        )
        out_shift, _ = apply_S(
            sysd, shifted_cs, shifted_noise, shifted_ens, w=steps(2.0, shifted_noise.h)
        )
        assert np.abs(out_shift.values - out.values).max() < 1e-12

    def test_chunking_is_bit_identical(self, set_chunk):
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 7, seed=11
        )
        ens = _random_ensemble(noise, 2, seed=1)
        cs = preset_coefficients("example41")
        full, _ = apply_S(sysd, cs, noise, ens, w=steps(0.5, noise.h))
        for chunk in (1, 2, 3, 7):
            set_chunk(chunk, noise.n_steps)
            part, _ = apply_S(sysd, cs, noise, ens, w=steps(0.5, noise.h))
            np.testing.assert_array_equal(part.values, full.values)

    def test_validation_errors(self):
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 1.0, 1.0 / 32), 1.0 / 32, 2, seed=0
        )
        ens = _random_ensemble(noise, 2, seed=0)
        cs = preset_coefficients("example41")
        other = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 32), 1.0 / 32, 2, seed=0
        )
        with pytest.raises(SolverError, match="grids do not match"):
            apply_S(sysd, cs, other, ens, w=steps(0.5, other.h))
        three = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 1.0, 1.0 / 32), 1.0 / 32, 3, seed=0
        )
        with pytest.raises(SolverError, match="path counts"):
            apply_S(sysd, cs, three, ens, w=steps(0.5, three.h))

    @pytest.mark.parametrize(
        "case", ["rotation", "jordan", "stiff", "sparse", "unreachable", "coupled"]
    )
    def test_matches_recursion_oracle(self, case, set_chunk):
        """The modal block scans against the per-step recursions on a
        rotating, a defective and a stiff generator, with sparse
        coefficients on two-dimensional noise, with terms that read a
        coordinate S cannot reach, and with a mode that only its
        triangular coupling forces.  S is exactly zero in the
        coordinates outside the plan's ``reach``, which the solve does not
        store: its terms read them as +0.0, so the input is zero there
        too.  The worker scratch is
        shared by phase at every chunking: "sparse" has an entry of two
        terms (``sum_buf``), "rotation", "sparse" and "unreachable" a
        complex half (``cbuf`` and complex ``z``).  70 paths are two
        blocks."""
        system, coefficients, spec = _ORACLE_CASES[case]
        sysd, h, window = system()
        d = sysd.dim
        noise = sample_noise(spec(), *window_steps(*window, h), h, 70, seed=23)
        ens = _random_ensemble(noise, d, seed=4)
        cs = coefficients(d)
        reach = _Plan.build(sysd, cs, noise, steps(1.0, noise.h)).reach
        assert reach == ((0, 1) if case in ("unreachable", "coupled") else (0, 1, 2))
        unreachable = [i for i in range(d) if i not in reach]
        ens.values[:, :, unreachable] = 0.0
        ref = _recursion_oracle(sysd, cs, noise, ens, truncation=1.0)
        for chunk in (1, 7, None):
            set_chunk(chunk, noise.n_steps)
            out, _ = apply_S(sysd, cs, noise, ens, w=steps(1.0, noise.h))
            assert out.coords == reach
            assert np.abs(dense(out) - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.all(ref[:, :, unreachable] == 0.0)

    @staticmethod
    def check_scratch_phases(scratch, paths, n):
        """The arrays of a worker scratch that the chunk kernel uses at
        once (building the forcing rows, scanning them into the modal
        accumulations, assembling the output) never overlap, and the
        scratch holds no more rows than the busiest phase uses."""
        size = paths * (n + 1)
        row_bytes = 8 * (size + size % 2)
        forcing_rows = [*scratch.drift.values(), *scratch.stoch.values()]
        work = [scratch.buf, scratch.cbuf, *scratch.z]
        phases = [
            [scratch.later, scratch.sum_buf, scratch.shared, *forcing_rows],
            forcing_rows + work,
            [scratch.res] + work,
        ]
        used = []
        for arrays in phases:
            arrays = [a for a in arrays if a is not None]
            for k, a in enumerate(arrays):
                assert not any(np.may_share_memory(a, b) for b in arrays[k + 1 :])
            used.append(sum(-(-a.nbytes // row_bytes) for a in arrays))
        assert scratch.n_rows == max(used)

    @pytest.mark.parametrize(
        "preset, rows", [("example41", 4), ("ou_forced", 4), ("galerkin_heat", 25)]
    )
    def test_scratch_rows_of_presets(self, preset, rows):
        """A worker's scratch holds as many rows as one phase of the chunk
        kernel uses: example41 z then ``buf`` (``later`` before them), the
        drift row then ``res``, and the stochastic row; ou_forced its drift
        and stochastic rows, z and ``buf``; galerkin_heat its 8 drift and
        8 stochastic rows, next to ``later`` that gives way to 6 + 2 modes
        and ``buf``.  The state columns are views of the ensemble and take
        no rows.  No preset has an entry of two terms, so none has
        ``sum_buf``."""
        run = validate_config(preset_config(preset))
        sysd = run.system
        noise = sample_noise(run.spec, *window_steps(-1.0, 1.0, 1.0 / 16), 1.0 / 16, 2, seed=0)
        plan = _Plan.build(sysd, run.coefficients, noise, steps(0.5, noise.h))
        scratch = _Scratch(plan, 5)
        assert scratch.n_rows == rows
        assert scratch.sum_buf is None and (scratch.later is None) == (preset == "ou_forced")
        self.check_scratch_phases(scratch, 5, noise.n_steps)

    @pytest.mark.parametrize(
        "case", ["rotation", "jordan", "stiff", "sparse", "unreachable", "coupled"]
    )
    def test_scratch_of_oracle_cases_is_shared_by_phase(self, case):
        system, coefficients, spec = _ORACLE_CASES[case]
        sysd, h, window = system()
        noise = sample_noise(spec(), *window_steps(*window, h), h, 3, seed=23)
        plan = _Plan.build(sysd, coefficients(sysd.dim), noise, steps(1.0, noise.h))
        scratch = _Scratch(plan, 3)
        self.check_scratch_phases(scratch, 3, noise.n_steps)
        # res takes the first drift row, the first stochastic row if none
        first = [*scratch.drift.values(), *scratch.stoch.values()][0]
        assert np.may_share_memory(scratch.res, first)
        assert (scratch.cbuf is not None) == (case in ("rotation", "sparse", "unreachable"))

    @pytest.mark.parametrize("preset, reach", [("example41", (1,)), ("galerkin_heat", None)])
    def test_reach_of_presets(self, preset, reach):
        """No forcing of example41 reaches its unstable first coordinate;
        every galerkin_heat mode is reached (``None``: all of them)."""
        run = validate_config(preset_config(preset))
        sysd = run.system
        noise = sample_noise(run.spec, *window_steps(-1.0, 1.0, 1.0 / 16), 1.0 / 16, 2, seed=0)
        plan = _Plan.build(sysd, run.coefficients, noise, steps(0.5, noise.h))
        assert plan.reach == (tuple(range(sysd.dim)) if reach is None else reach)

    @staticmethod
    def built_halves(monkeypatch, sysd, h, w):
        """The modal halves of S, each with the fields it would have if
        built through ``scipy.linalg.schur`` from the same arguments."""
        from scipy.linalg import rsf2csf, schur

        import levyap.solver as solver_module

        pairs = []
        real = solver_module._ModalHalf.build

        def recording(basis, prop, ker, stoch, win, reverse):
            tri, z = schur(basis.T @ prop @ basis)
            if np.any(np.diag(tri, -1) != 0.0):
                tri, z = rsf2csf(tri, z)
            to_modal = z.conj().T @ basis.T
            back = basis @ z
            ref = {
                "tri": np.triu(tri),
                "drift_map": to_modal @ ker,
                "stoch_map": to_modal @ stoch,
                "back": back,
                "back_win": win @ back,
            }
            half = real(basis, prop, ker, stoch, win, reverse)
            pairs.append((half, ref))
            return half

        monkeypatch.setattr(solver_module._ModalHalf, "build", recording)
        solver_module._modal_halves(sysd, h, w)
        return pairs

    @pytest.mark.parametrize("preset", ["example41", "ou_forced", "galerkin_heat"])
    def test_preset_halves_are_bit_equal_to_schur_built(self, monkeypatch, preset):
        """Every preset's reduced propagators are diagonal, their own Schur
        form: each field of each half is bit for bit the one built through
        ``scipy.linalg.schur``."""
        cfg = preset_config(preset)
        sysd = build_system(cfg.system)
        h = float(cfg.numerics.h)
        pairs = self.built_halves(monkeypatch, sysd, h, round(float(cfg.numerics.truncation) / h))
        assert len(pairs) == (sysd.rank_stable > 0) + (sysd.rank_unstable > 0)
        for half, ref in pairs:
            for name, value in ref.items():
                got = getattr(half, name)
                assert got.dtype == value.dtype and got.shape == value.shape, name
                assert got.tobytes() == value.tobytes(), name

    def test_rotation_halves_are_pinned(self, monkeypatch):
        """The rotation half keeps its complex Schur form; the 1x1 unstable
        half matches the Schur-built one exactly.  Its kernel, once an
        augmented-matrix expm, stays within 2 ulp of that value, and the
        rotation kernel, still one, is unchanged."""
        sysd, h, _ = _rotation_system()
        pairs = self.built_halves(monkeypatch, sysd, h, 32)
        (rot, rot_ref), (uns, uns_ref) = pairs
        assert np.iscomplexobj(rot.tri) and rot.tri.shape == (2, 2)
        for half, ref in pairs:
            for name, value in ref.items():
                np.testing.assert_array_equal(getattr(half, name), value)
        np.testing.assert_array_equal(
            sysd.stable_kernel_matrix(h),
            [
                [0.030722068340224923, 0.0014336347371139127, 0.0],
                [-0.0014336347371139125, 0.03072206834022492, 0.0],
                [0.0, 0.0, 0.0],
            ],
        )
        pinned = 0.030293468593262107
        assert abs(sysd.unstable_kernel_matrix(-h)[2, 2] - pinned) <= 2 * np.spacing(pinned)
        assert sysd.unstable_matrix(-h)[2, 2] == 0.9394130628134758

    def test_stiff_mode_runs_several_scan_blocks(self):
        sysd, h, window = _stiff_system()
        lam = math.exp(-300.0 * h)
        n = round((window[1] - window[0]) / h)
        assert lam**n == 0.0
        assert 1 < _scan_block(lam, n) < n / 2

    def test_multidimensional_noise_runs(self):
        n_modes = 4
        sysd = DichotomousSystem.create(
            np.diag(-np.arange(1.0, n_modes + 1)), np.eye(n_modes), k=1.0, omega=1.0
        )
        cs = build_coefficients(galerkin_modes(n_modes), n_modes, n_modes)

        spec = LevyProcessSpec(
            dim=n_modes,
            covariance=np.eye(n_modes),
            jumps=(
                JumpComponent(
                    rate=2.0, marks=UniformAnnulusMark(0.1, 0.5, n_modes)
                ),
            ),
        )
        noise = sample_noise(spec, *window_steps(-2.0, 2.0, 1.0 / 32), 1.0 / 32, 3, seed=17)
        res = picard_solve(sysd, cs, noise, tol=1e-18, w=steps(1.0, noise.h))
        assert res.converged
        assert res.ensemble.values.shape == (3, 129, n_modes)
        assert np.all(np.isfinite(res.ensemble.values))


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


class TestPicard:
    def test_zero_coefficients_converge_immediately(self):
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 1.0, 1.0 / 32), 1.0 / 32, 3, seed=1
        )
        res = picard_solve(sysd, zero_coefficients(2, 1), noise, w=steps(0.5, noise.h))
        assert res.converged and res.iterations == 1
        assert res.gap_trace[0]["gap"] == 0.0
        assert res.ensemble.coords == () and res.ensemble.values.shape == (3, noise.n_steps + 1, 0)

    def test_trace_record_shape(self):
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 8, seed=3
        )
        res = picard_solve(
            sysd, preset_coefficients("example41"), noise, tol=1e-20, w=steps(1.0, noise.h)
        )
        assert res.converged
        assert res.iterations == len(res.gap_trace)
        for i, rec in enumerate(res.gap_trace):
            assert set(rec) == {"k", "gap", "sup_second_moment", "wall_ms"}
            assert rec["k"] == i + 1
            assert rec["gap"] >= 0.0 and rec["wall_ms"] >= 0.0
        assert res.gap_trace[-1]["gap"] <= 1e-20

    def test_gap_ratios_below_contraction_factor(self):
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 3.0, 1.0 / 128), 1.0 / 128, 48, seed=7
        )
        res = picard_solve(
            sysd, preset_coefficients("example41"), noise, tol=1e-24, w=steps(1.5, noise.h)
        )
        gaps = [rec["gap"] for rec in res.gap_trace]
        eta = 5.0 / 48.0
        floor = 1e-26
        for a, b in zip(gaps[:-1], gaps[1:]):
            if a > 10 * floor and b > 0:
                assert b / a <= eta + 0.1

    def test_max_iter_returns_unconverged(self):
        """At max_iter the last iterate is returned: S applied twice to
        the zero ensemble."""
        sysd = benchmark_system()
        cs = preset_coefficients("example41")
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 4, seed=3
        )
        res = picard_solve(sysd, cs, noise, tol=1e-30, max_iter=2, w=steps(1.0, noise.h))
        assert not res.converged
        assert res.iterations == 2
        zero = np.zeros((4, noise.n_steps + 1, 2))
        ens = PathEnsemble(h=noise.h, k_lo=noise.k_lo, values=zero, dim=2, coords=(0, 1))
        for _ in range(2):
            ens, _ = apply_S(sysd, cs, noise, ens, w=steps(1.0, noise.h))
        np.testing.assert_array_equal(res.ensemble.values, ens.values)

    @staticmethod
    def count_builds(monkeypatch):
        """Count the plan builds, the modal half builds and the Schur
        decompositions of a solve."""
        import scipy.linalg

        import levyap.solver as solver_module

        calls = {"plan": 0, "half": 0, "schur": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
        monkeypatch.setattr(
            solver_module._Plan, "build", counted("plan", solver_module._Plan.build)
        )
        monkeypatch.setattr(
            solver_module._ModalHalf, "build", counted("half", solver_module._ModalHalf.build)
        )
        return calls

    def test_plan_is_built_once_per_solve(self, monkeypatch, set_chunk):
        """The plan and its two modal halves are built once per solve, not
        once per iteration.  The halves of a diagonal system are already
        triangular, so no Schur form is computed."""
        calls = self.count_builds(monkeypatch)
        sysd = benchmark_system()  # one stable and one unstable half
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 5, seed=3
        )
        set_chunk(2, noise.n_steps)
        res = picard_solve(
            sysd, preset_coefficients("example41"), noise, tol=1e-30, max_iter=4,
            w=steps(1.0, noise.h), threads=2,
        )
        assert res.iterations == 4
        assert calls == {"plan": 1, "half": 2, "schur": 0}

    def test_rotation_half_takes_one_schur_form_per_solve(self, monkeypatch, set_chunk):
        """The 2x2 rotation half of ``_rotation_system`` is not triangular:
        it takes exactly one Schur form per solve; its 1x1 unstable half
        takes none."""
        calls = self.count_builds(monkeypatch)
        sysd, h, window = _rotation_system()
        noise = sample_noise(_jump_diffusion_spec(), *window_steps(*window, h), h, 5, seed=3)
        set_chunk(2, noise.n_steps)
        res = picard_solve(
            sysd, _mixed_coefficients(3), noise, tol=1e-30, max_iter=3, w=steps(1.0, noise.h),
            threads=2,
        )
        assert res.iterations == 3
        assert calls == {"plan": 1, "half": 2, "schur": 1}

    def test_fixed_point_self_consistency(self):
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 2.0, 1.0 / 64), 1.0 / 64, 16, seed=9
        )
        res = picard_solve(
            sysd, preset_coefficients("example41"), noise, tol=1e-24, w=steps(1.0, noise.h)
        )
        again, _ = apply_S(
            sysd, preset_coefficients("example41"), noise, res.ensemble, w=steps(1.0, noise.h)
        )
        gap = np.mean(np.sum((again.values - res.ensemble.values) ** 2, axis=2), axis=0).max()
        assert gap <= 1e-23

    def test_fixed_point_is_reached_from_a_random_start(self):
        """The bounded solution is unique: Picard from a random bounded
        ensemble reaches the fixed point of the zero-start solve.  In the
        largest path-average over the grid of the squared distance, S
        contracts by eta, so an iterate whose gap is at most tol lies
        within tol eta / (1 - sqrt(eta))^2 of the fixed point, and two
        such iterates differ by at most four times that: 0.91 tol at eta
        = 5/48, below tol / (1 - eta)."""
        sysd = benchmark_system()
        cs = preset_coefficients("example41")
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 32, seed=41
        )
        tol = 1e-14
        ref = picard_solve(sysd, cs, noise, tol=tol, w=steps(1.0, noise.h))
        assert ref.converged
        start = _random_ensemble(noise, 2, seed=7, scale=2.0)
        values, trace = _out_of_place_picard(
            sysd, cs, noise, tol, steps(1.0, noise.h), initial=start
        )
        assert trace[0]["gap"] > 1.0 and trace[-1]["gap"] <= tol
        eta = check_conditions(sysd.k, sysd.omega, cs.lipschitz, 1).eta
        assert eta == Fraction(5, 48)
        dist = np.mean(np.sum((values - dense(ref.ensemble)) ** 2, axis=2), axis=0).max()
        assert dist <= tol / (1 - eta)

    def test_default_truncation_is_twelve_over_omega(self):
        """With no configured truncation a run takes the system's horizon,
        12/omega rounded to the grid: 2 at example41's omega = 6, which the
        solve's tail report states.  A window narrower than twice that is
        rejected."""
        cfg = preset_config("example41")
        num = cfg.numerics._replace(h=Fraction(1, 32), window=(-2, 3), n_paths=2, truncation=None)
        cfg = cfg._replace(numerics=num, analysis=cfg.analysis._replace(times=(), shifts=()))
        run = validate_config(cfg)
        assert run.w == 64
        noise = sample_noise(run.spec, run.k_lo, run.n, 1.0 / 32, 2, seed=2)
        res = picard_solve(run.system, run.coefficients, noise, w=run.w, tol=1e-12)
        assert res.tail_report["truncation"] == pytest.approx(2.0)
        narrow = cfg._replace(numerics=num._replace(window=(-1, 1)))
        with pytest.raises(ConfigError, match="narrower than twice the truncation 2.0"):
            validate_config(narrow)

    def test_noise_determinism_and_sensitivity(self):
        sysd = benchmark_system()
        cs = preset_coefficients("example41")
        a = sample_noise(benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 6, seed=5)
        b = sample_noise(benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 6, seed=5)
        c = sample_noise(benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 6, seed=6)
        ra = picard_solve(sysd, cs, a, tol=1e-18, w=steps(1.0, a.h))
        rb = picard_solve(sysd, cs, b, tol=1e-18, w=steps(1.0, b.h))
        rc = picard_solve(sysd, cs, c, tol=1e-18, w=steps(1.0, c.h))
        np.testing.assert_array_equal(ra.ensemble.values, rb.ensemble.values)
        assert not np.array_equal(ra.ensemble.values, rc.ensemble.values)

    def test_chunked_solve_is_bit_identical(self, set_chunk):
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 5, seed=13
        )
        cs = preset_coefficients("example41")
        full = picard_solve(sysd, cs, noise, tol=1e-18, w=steps(1.0, noise.h))
        set_chunk(2, noise.n_steps)
        part = picard_solve(sysd, cs, noise, tol=1e-18, w=steps(1.0, noise.h))
        np.testing.assert_array_equal(full.ensemble.values, part.ensemble.values)
        assert [r["gap"] for r in full.gap_trace] == [r["gap"] for r in part.gap_trace]

    def test_threads_and_chunks_are_bit_identical(self, set_chunk):
        """Workers write disjoint path chunks of one output array; more
        workers than cores and frequent thread switches must not change
        a bit."""
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 11, seed=19
        )
        cs = preset_coefficients("example41")
        full = picard_solve(sysd, cs, noise, tol=1e-18, w=steps(1.0, noise.h))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for chunk, threads in ((None, 2), (None, 3), (4, 2), (3, 3), (5, 1), (1, 8)):
                set_chunk(chunk, noise.n_steps)
                part = picard_solve(
                    sysd, cs, noise, tol=1e-18, w=steps(1.0, noise.h), threads=threads
                )
                np.testing.assert_array_equal(full.ensemble.values, part.ensemble.values)
                assert _strip_wall(full.gap_trace) == _strip_wall(part.gap_trace)
        finally:
            sys.setswitchinterval(interval)

    def test_solve_is_pinned(self):
        """A sha256 of the values and the gap trace of two short solves,
        taken while the chunk kernel evaluated the jump terms and the scan
        powers anew in every chunk and copied the state columns: example41
        on the benchmark system, and the signal and jump set on
        two-dimensional noise.  Planning them once changes no bit."""
        cases = (
            (benchmark_spec(), (-2.0, 2.0), 1.0 / 64, 41, preset_coefficients("example41"), 1.0,
             "2c3eff8a0481d1595253e018c5506bd0db1665eceeb2d5063c4644ada238315c"),
            (_two_dim_spec(), (-1.0, 2.0), 1.0 / 32, 1041, _signal_jump_coefficients(), 0.5,
             "62cc13e3625681aee4fd32fca066e510379e4412438cfb0f466598b46c70214d"),
        )
        for spec, window, h, seed, cs, truncation, expected in cases:
            noise = sample_noise(spec, *window_steps(*window, h), h, 70, seed=seed)
            res = picard_solve(
                benchmark_system(), cs, noise, tol=1e-30, max_iter=6, w=steps(truncation, noise.h)
            )
            digest = hashlib.sha256(dense(res.ensemble).tobytes())
            for rec in res.gap_trace:
                digest.update(np.array([rec["gap"], rec["sup_second_moment"]]).tobytes())
            assert digest.hexdigest() == expected

    def test_planned_jump_terms_follow_the_chunks(self, set_chunk):
        """The plan holds the jump maps; a block prepares their terms at
        its own events when it draws them, and a chunk of paths takes the
        slice that holds its events.  On a set with small and large jumps,
        outer signals and mark weights, each block's terms equal those
        prepared from the block's events, every chunk's slice holds the
        chunk's events, numbered from the block's first path, and the
        solve is bitwise the same for threads 1 and 2 and chunks of 1 and
        7 paths and the default (70 paths are two blocks)."""
        from levyap.coefficients import jump_terms

        sysd = benchmark_system()
        cs = _signal_jump_coefficients()
        noise = sample_noise(
            _two_dim_spec(), *window_steps(-1.0, 2.0, 1.0 / 32), 1.0 / 32, 70, seed=1041
        )
        plan = _Plan.build(sysd, cs, noise, steps(0.5, noise.h))
        assert plan.jumps == ((0, cs.jump_small), (1, cs.jump_large))
        set_chunk(7, noise.n_steps)
        for chunks in _blocks(70, noise.n_steps):
            first, last = chunks[0][0], chunks[-1][1]
            dw, block_jumps = _draw_block(plan, first, last)
            np.testing.assert_array_equal(dw, noise.dW[first:last])
            for jumps, (region, tmap) in zip(block_jumps, plan.jumps):
                mine = (noise.event_region == region) & (noise.event_path >= first)
                mine &= noise.event_path < last
                times = noise.grid[noise.event_step[mine]]
                expected = jump_terms(tmap, times, noise.event_marks[mine])
                assert len(jumps.terms) == len(expected)
                for got_row, want_row in zip(jumps.terms, expected):
                    assert len(got_row) == len(want_row)
                    for got, want in zip(got_row, want_row):
                        assert (got.scale, got.kernel, got.coord) == (
                            want.scale, want.kernel, want.coord
                        )
                        for name in ("inner", "outer", "mark"):
                            got_f, want_f = getattr(got, name), getattr(want, name)
                            assert (got_f is None) == (want_f is None)
                            if got_f is not None:
                                np.testing.assert_array_equal(got_f, want_f)
                for lo, hi in chunks:
                    own = mine & (noise.event_path >= lo) & (noise.event_path < hi)
                    assert own.any()
                    a, b = jumps.starts[lo - first], jumps.starts[hi - first]
                    np.testing.assert_array_equal(jumps.path[a:b] + first, noise.event_path[own])
                    np.testing.assert_array_equal(jumps.step[a:b], noise.event_step[own])
        set_chunk(None, noise.n_steps)
        ref = picard_solve(sysd, cs, noise, tol=1e-30, max_iter=6, w=steps(0.5, noise.h))
        for chunk in (1, 7, None):
            set_chunk(chunk, noise.n_steps)
            for threads in (1, 2):
                res = picard_solve(
                    sysd, cs, noise, tol=1e-30, max_iter=6, w=steps(0.5, noise.h),
                    threads=threads,
                )
                np.testing.assert_array_equal(res.ensemble.values, ref.ensemble.values)
                assert _strip_wall(res.gap_trace) == _strip_wall(ref.gap_trace)

    def test_wide_mark_weights_are_chunk_invariant(self, set_chunk):
        """Mark weights on 8-d noise: the mark factor w . x of a jump term
        is a BLAS product whose rounding can depend on how many events it
        is taken over.  A block prepares it at its own events, so it
        depends on the block's paths alone.  The solve is then bitwise the
        same for any chunking, and the first two blocks' paths are bitwise
        the same at 128, 129, 192 and 256 paths: adding paths leaves the
        paths there are alone.  Taken over all events of the run at once,
        the product moved the first 128 paths' bits when paths were
        added."""
        d = 8
        spec = LevyProcessSpec(
            dim=d,
            covariance=np.eye(d),
            jumps=(
                JumpComponent(6.0, UniformAnnulusMark(0.1, 0.6, d)),
                JumpComponent(3.0, UniformAnnulusMark(1.0, 1.5, d)),
            ),
        )
        weights = tuple(np.linspace(-1.0, 1.0, d))
        cs = CoefficientSet(
            dim_state=1,
            dim_noise=d,
            drift=((CoefficientTerm(0.3, "bounded_ratio"),),),
            diffusion=(tuple((CoefficientTerm(0.05, "const"),) for _ in range(d)),),
            jump_small=((CoefficientTerm(0.1, "linear", mark_weights=weights),),),
            jump_large=((CoefficientTerm(0.05, "const", mark_weights=weights),),),
            lipschitz=Fraction(1, 2),
        )
        noise = sample_noise(spec, *window_steps(-1.0, 2.0, 1.0 / 32), 1.0 / 32, 70, seed=5)
        runs = []
        for chunk in (1, 7, None):
            set_chunk(chunk, noise.n_steps)
            runs.append(
                picard_solve(
                    scalar_system(), cs, noise, tol=1e-30, max_iter=5, w=steps(0.5, noise.h)
                )
            )
        for res in runs[:-1]:
            np.testing.assert_array_equal(res.ensemble.values, runs[-1].ensemble.values)
        grown = []
        for m in (128, 129, 192, 256):
            noise = sample_noise(spec, *window_steps(-1.0, 2.0, 1.0 / 32), 1.0 / 32, m, seed=5)
            res = picard_solve(
                scalar_system(), cs, noise, tol=1e-30, max_iter=5, w=steps(0.5, noise.h)
            )
            grown.append(res.ensemble.values[:128])
        for values in grown[1:]:
            np.testing.assert_array_equal(values, grown[0])

    def test_bitwise_across_moment_blocks(self, set_chunk):
        """150 paths are three moment blocks, the last one partial.  The
        in-place sweep must give the values and the gap trace of the
        out-of-place oracle bit for bit, for any chunking and worker
        count."""
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-1.0, 2.0, 1.0 / 64), 1.0 / 64, 150, seed=29
        )
        cs = preset_coefficients("example41")
        ref_values, ref_trace = _out_of_place_picard(
            sysd, cs, noise, tol=1e-18, w=steps(1.0, noise.h)
        )
        assert len(ref_trace) > 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for chunk in (None, 7):
                set_chunk(chunk, noise.n_steps)
                for threads in (1, 2, 3):
                    res = picard_solve(
                        sysd, cs, noise, tol=1e-18, w=steps(1.0, noise.h), threads=threads
                    )
                    np.testing.assert_array_equal(dense(res.ensemble), ref_values)
                    assert _strip_wall(res.gap_trace) == ref_trace
        finally:
            sys.setswitchinterval(interval)

    def test_chunks_split_blocks_evenly(self, set_chunk):
        """The grid length alone sets the chunk: the path-step budget from
        4096 steps on, half a block below."""
        assert _blocks(64, 6144) == [[(0, 16), (16, 32), (32, 48), (48, 64)]]
        assert _blocks(64, 4097) == [[(0, 21), (21, 42), (42, 64)]]
        for n in (1, 768, 1536, 2688, 4096):
            assert _blocks(150, n) == [
                [(0, 32), (32, 64)], [(64, 96), (96, 128)], [(128, 150)]
            ]
        set_chunk(7, 192)
        blocks = _blocks(150, 192)
        assert [b[0][0] for b in blocks] == [0, 64, 128]
        for block in blocks:
            sizes = [hi - lo for lo, hi in block]
            assert max(sizes) <= 7 and max(sizes) - min(sizes) <= 1
            assert all(a[1] == b[0] for a, b in zip(block[:-1], block[1:]))
        assert blocks[-1][-1][1] == 150

    def test_overflowing_iterate_raises(self, monkeypatch):
        """A huge linear drift makes the second iterate finite but too
        large to square, and the third one non-finite: the solve stops
        there, not at ``max_iter``.  The first block's own gap at the
        second iterate is infinite, which proves the third reached, so
        the one worker runs that block's three iterations back to back
        and raises at the third, before the second block starts."""
        import levyap.solver as solver_module

        blocks = []
        sweep_block = solver_module._sweep_block
        monkeypatch.setattr(
            solver_module,
            "_sweep_block",
            lambda *a: blocks.append(a[2][0][0] // BLOCK_PATHS) or sweep_block(*a),
        )
        sysd = scalar_system(2.0)
        cs = CoefficientSet(
            dim_state=1,
            dim_noise=1,
            drift=((CoefficientTerm(1.0, "const"), CoefficientTerm(1e300, "linear")),),
            diffusion=(((),),),
            jump_small=((),),
            jump_large=((),),
            lipschitz=Fraction(1, 64),
        )
        noise = sample_noise(
            wiener_only_spec(), *window_steps(-1.0, 1.0, 1.0 / 32), 1.0 / 32, 70, seed=3
        )
        with np.errstate(all="ignore"):
            two = picard_solve(sysd, cs, noise, tol=1e-12, max_iter=2, w=steps(0.5, noise.h))
            assert np.all(np.isfinite(two.ensemble.values))
            assert math.isinf(two.gap_trace[-1]["sup_second_moment"])
            blocks.clear()
            with pytest.raises(SolverError, match="non-finite states"):
                picard_solve(sysd, cs, noise, tol=1e-12, max_iter=60, w=steps(0.5, noise.h))
        assert blocks == [0, 0, 0]  # 70 paths are two blocks

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_non_finite_state_raises(self, monkeypatch, set_chunk, bad):
        """A NaN or an infinity at any one state of an iterate stops the
        solve: its square makes that time's moment sum non-finite, and the
        exact ``isfinite`` check then finds it.  The state is planted in
        the rows each chunk writes back; 3 paths are two chunks."""
        import levyap.solver as solver_module

        apply_chunk = solver_module._apply_chunk
        at = {}

        def planting(plan, values, lo, hi, *rest):
            for new in apply_chunk(plan, values, lo, hi, *rest):
                if lo <= at["path"] < hi:
                    new[at["path"] - lo, at["step"]] = bad
                yield new

        monkeypatch.setattr(solver_module, "_apply_chunk", planting)
        cs = CoefficientSet(
            dim_state=1,
            dim_noise=1,
            drift=((CoefficientTerm(1.0, "const"),),),
            diffusion=(((CoefficientTerm(0.5, "const"),),),),
            jump_small=((),),
            jump_large=((),),
            lipschitz=Fraction(1, 64),
        )
        noise = sample_noise(wiener_only_spec(), *window_steps(-1.0, 1.0, 0.25), 0.25, 3, seed=5)
        set_chunk(2, noise.n_steps)
        for path in range(noise.n_paths):
            for step in range(noise.n_steps + 1):
                at.update(path=path, step=step)
                with pytest.raises(SolverError, match="non-finite states"):
                    picard_solve(scalar_system(), cs, noise, w=steps(0.5, noise.h))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_solve_holds_one_ensemble(self, set_chunk, threads):
        """The solve overwrites one ensemble in place, with one scratch per
        worker shared by phase: its traced peak stays well below the two
        ensembles an out-of-place iteration holds.  The ensemble holds the
        one coordinate of example41 that S reaches.  Measured: 1.12 (1
        worker) and 1.20 (2 workers) times the ensemble with 8-path
        chunks, 1.30 and 1.57-1.58 with the default half-block chunks; the
        bound leaves 0.14 (0.9 MB) above the largest.  Holding both
        coordinates, the solve peaked 6.3 MB higher, above the bound."""
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 4.0, 1.0 / 256), 1.0 / 256, 512, seed=31
        )
        for chunk in (8, None):
            set_chunk(chunk, noise.n_steps)
            tracemalloc.start()
            try:
                res = picard_solve(
                    sysd, preset_coefficients("example41"), noise, w=steps(2.0, noise.h),
                    tol=1e-12, max_iter=3, threads=threads,
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.72 * res.ensemble.values.nbytes, chunk

    def test_sweep_memory_does_not_grow_with_paths(self):
        """Beside the ensemble, a sweep holds the moment and gap sums of a
        few blocks, for the reached coordinates only: from 128 to 1024
        paths the traced peak less the ensemble grows by less than
        (workers + 1) blocks' reached sums.  Wiener noise only, so the
        plan holds no events; a truncation of 1/4 keeps every strided
        row of the kernel longer than numpy's ufunc buffer, whose
        per-thread temporaries would otherwise blur the peak.  Measured
        with rounds of one block per worker and each worker's
        ``_sup_mean`` buffers allocated once per solve: 0.20-0.29 blocks
        at 1 worker (10 runs), 1.21-1.28 at 2 (20 runs).
        Holding every block's sums of all dim coordinates to the end of
        the sweep, the peak grew by 28-29 blocks' reached sums."""
        h = 1.0 / 512
        noises = [
            sample_noise(wiener_only_spec(), *window_steps(-2.0, 4.0, h), h, m, seed=3)
            for m in (128, 1024)
        ]
        cs = preset_coefficients("example41")
        plan = _Plan.build(benchmark_system(), cs, noises[0], steps(0.25, h))
        block = 2 * len(plan.reach) * (noises[0].n_steps + 1) * 8
        for threads in (1, 2):
            held = []
            for noise in noises:
                tracemalloc.start()
                try:
                    res = picard_solve(
                        benchmark_system(), cs, noise, w=steps(0.25, h), tol=1e-30,
                        max_iter=3, threads=threads,
                    )
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                held.append(peak - res.ensemble.values.nbytes)
            assert held[1] - held[0] < (threads + 1) * block, (threads, held)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_solve_stores_only_the_reached_coordinates(self, set_chunk, threads):
        """On a diagonal 8-d system a constant drift on one coordinate
        reaches that coordinate alone, and one on every coordinate reaches
        all 8.  Above the traced peak of a solve that reaches none, the
        first solve allocates about 1/8 of the second's states: the kept
        rows and each worker's block states of the reached coordinates
        alone.  One-path chunks keep the scratch, which also grows with
        the forced coordinates, small beside them.  Measured: 1.11-1.14
        and 1.07-1.08 times the states of 1 and of 8 coordinates.  With
        every coordinate stored, the two solves allocated 0.12-0.13 and
        0.075-0.076 times them above the one that reaches none."""
        d, h = 8, 1.0 / 128
        sysd = DichotomousSystem.create(
            np.diag(-np.arange(1.0, d + 1)), np.eye(d), k=1.0, omega=1.0
        )
        noise = sample_noise(wiener_only_spec(), *window_steps(-2.0, 2.0, h), h, 256, seed=3)
        keep = range(0, noise.n_steps + 1, 2)
        set_chunk(1, noise.n_steps)

        def peak(forced) -> int:
            drift = tuple((CoefficientTerm(0.5, "const"),) if i in forced else () for i in range(d))
            cs = CoefficientSet(
                dim_state=d, dim_noise=1, drift=drift, diffusion=(((),),) * d,
                jump_small=((),) * d, jump_large=((),) * d, lipschitz=Fraction(1, 64),
            )
            tracemalloc.start()
            try:
                res = picard_solve(
                    sysd, cs, noise, w=steps(0.5, h), max_iter=2, threads=threads, keep=keep,
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert res.ensemble.coords == tuple(forced)
            return peak

        base = peak(())
        one, every = peak((3,)) - base, peak(tuple(range(d))) - base
        states = 8 * (noise.n_paths * len(keep) + threads * BLOCK_PATHS * (noise.n_steps + 1))
        assert states <= one <= 1.2 * states, (one, states)
        assert d * states <= every <= 1.1 * d * states, (every, d * states)

    def test_example41_result_is_pinned(self):
        """A sha256 of the values and of the gaps and moments of a small
        example41 solve, taken before the ensemble was stored coordinate
        by coordinate; any change to the rounding of the sweep or of the
        moment sums changes it, at any thread count."""
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 2.0, 1.0 / 32), 1.0 / 32, 96, seed=41
        )
        for threads in (1, 2):
            res = picard_solve(
                benchmark_system(), preset_coefficients("example41"), noise, w=steps(2.0, noise.h),
                tol=1e-18, threads=threads,
            )
            assert res.converged and res.iterations == 7
            digest = hashlib.sha256(dense(res.ensemble).tobytes())
            trace = [[rec["gap"], rec["sup_second_moment"]] for rec in res.gap_trace]
            digest.update(np.array(trace).tobytes())
            assert digest.hexdigest() == (
                "8de7f866a39f1b4ce6ae5ad02dd9bf9e5653ef8a8a41ffbf1e4cf793d2ee44a9"
            )

    @pytest.mark.parametrize("source", ["example41", "custom"])
    def test_lazy_draw_solves_as_the_drawn_sample(self, set_chunk, source):
        """A ``NoiseDraw``, whose blocks draw their Wiener increments and
        jump events on the worker that sweeps them, gives the solve of the
        drawn sample bit for bit, values and gap trace, for 1, 2 and 3
        workers and chunks of 7 paths and the default: on
        example41's coefficients, and on those of
        ``tests/data/custom.json``, with a correlated 2-d covariance, point
        marks and mark weights.  150 paths are three blocks, the last one
        partial."""
        if source == "custom":
            cfg = load_config(Path(__file__).parent / "data" / "custom.json")
        else:
            cfg = preset_config("example41")
            cfg = cfg._replace(numerics=cfg.numerics._replace(h=Fraction(1, 64)))
        cfg = cfg._replace(numerics=cfg.numerics._replace(n_paths=150))
        run = validate_config(cfg)
        args = (run.spec, run.k_lo, run.n, float(cfg.numerics.h), 150, cfg.seed)
        drawn, lazy = sample_noise(*args), NoiseDraw(*args)
        solve = dict(tol=float(cfg.numerics.tol), max_iter=cfg.numerics.max_iter, w=run.w)
        ref = picard_solve(run.system, run.coefficients, drawn, **solve)
        assert ref.converged and ref.iterations > 3
        for threads in (1, 2, 3):
            for chunk in (None, 7):
                set_chunk(chunk, run.n)
                res = picard_solve(run.system, run.coefficients, lazy, threads=threads, **solve)
                np.testing.assert_array_equal(res.ensemble.values, ref.ensemble.values)
                assert _strip_wall(res.gap_trace) == _strip_wall(ref.gap_trace)

    def test_each_block_is_a_solve_of_its_own_paths(self, set_chunk):
        """Each block of 64 paths is solved to its own stop: its values and
        its iteration count are those of a solve of its paths alone,
        ``NoiseDraw.paths(lo, hi)``, for 1, 2 and 3 workers and chunks of
        7 paths and the default, at 40, 130 and 200 paths.  In three
        of the cases the blocks stop at different counts, and in one
        ``max_iter`` stops some blocks unconverged.  The trace has a
        record per iteration up to the largest count, bitwise the same
        for 1, 2 and 3 workers, however often the threads switch, and the
        solve has converged when every block has.  The result's
        ``sup_second_moment`` is that of its ensemble, over every path, and
        with ``final_gap`` the last record's when every block stops at the
        same count."""
        sysd, cs, h = benchmark_system(), preset_coefficients("example41"), 1.0 / 32
        w = steps(1.0, h)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.check_blocks_alone(sysd, cs, h, w, set_chunk)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def check_blocks_alone(sysd, cs, h, w, set_chunk):
        uneven = 0
        for m, seed, tol, max_iter in (
            (200, 1, 1e-12, 60), (200, 5, 1e-14, 60), (200, 0, 1e-8, 60), (130, 1, 1e-14, 5),
            (40, 3, 1e-12, 60),
        ):
            noise = NoiseDraw(benchmark_spec(), *window_steps(-1.0, 2.0, h), h, m, seed)
            starts = range(0, m, BLOCK_PATHS)
            alone = [
                picard_solve(sysd, cs, noise.paths(lo, min(lo + BLOCK_PATHS, m)), tol=tol,
                             max_iter=max_iter, w=w)
                for lo in starts
            ]
            counts = tuple(res.iterations for res in alone)
            uneven += len(set(counts)) > 1
            traces = []
            for threads in (1, 2, 3):
                for chunk in (7, None):
                    set_chunk(chunk, noise.n_steps)
                    res = picard_solve(
                        sysd, cs, noise, tol=tol, max_iter=max_iter, w=w, threads=threads
                    )
                    assert res.block_iterations == counts, (m, seed, threads, chunk)
                    assert res.iterations == len(res.gap_trace) == max(counts)
                    assert res.converged == all(block.converged for block in alone)
                    for lo, block in zip(starts, alone):
                        np.testing.assert_array_equal(
                            res.ensemble.values[lo : lo + BLOCK_PATHS], block.ensemble.values
                        )
                    moment = (res.ensemble.values**2).sum(axis=2).mean(axis=0).max()
                    assert res.sup_second_moment == pytest.approx(moment, rel=1e-12)
                    last = res.gap_trace[-1]
                    if len(set(counts)) == 1:
                        assert res.final_gap == last["gap"]
                        assert res.sup_second_moment == last["sup_second_moment"]
                    traces.append(_strip_wall(res.gap_trace))
            assert all(trace == traces[0] for trace in traces)
        assert uneven == 3

    def test_a_failing_block_stops_every_worker(self, monkeypatch):
        """A block that raises ends the solve with its error at any worker
        count, both when later blocks wait to add their sums and when
        earlier ones are still running: no worker is left waiting, and no
        block after the failing block's round is drawn."""
        import levyap.solver as solver_module

        sweep_block, draw_block = solver_module._sweep_block, solver_module._draw_block

        def failing(plan, block, chunks, *rest):
            if chunks[0][0] // BLOCK_PATHS == raising:
                raise RuntimeError("block failed")
            return sweep_block(plan, block, chunks, *rest)

        def drawing(plan, lo, hi):
            drawn[-1].append(lo // BLOCK_PATHS)
            return draw_block(plan, lo, hi)

        monkeypatch.setattr(solver_module, "_sweep_block", failing)
        monkeypatch.setattr(solver_module, "_draw_block", drawing)
        h = 1.0 / 16
        noise = NoiseDraw(benchmark_spec(), *window_steps(-1.0, 2.0, h), h, 10 * BLOCK_PATHS, 37)
        errors, drawn = [], []

        def solves():
            for threads in (1, 2, 3):
                drawn.append([])
                try:
                    picard_solve(
                        benchmark_system(), preset_coefficients("example41"), noise, tol=1e-18,
                        max_iter=3, w=steps(1.0, h), threads=threads,
                    )
                except RuntimeError as exc:
                    errors.append(str(exc))

        for raising in (0, 4, 9):
            errors.clear()
            drawn.clear()
            thread = threading.Thread(target=solves, daemon=True)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), raising
            assert errors == ["block failed"] * 3, raising
            for threads, blocks in zip((1, 2, 3), drawn):
                assert max(blocks) < (raising // threads + 1) * threads, (raising, threads, blocks)

    @given(
        m=st.integers(2, 260),
        seed=st.integers(0, 2**16),
        tol=st.integers(60, 160).map(lambda e: 10.0 ** (-e / 10)),
        max_iter=st.integers(1, 8),
        threads=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_converged_solve_ends_within_tol(self, m, seed, tol, max_iter, threads):
        """When every block's own gap reaches ``tol``, so does the last
        record's gap, over the paths of the blocks that ran the last
        iteration, and the final gap over every path, each block's last:
        the sup over the grid of a weighted mean of the blocks' means is
        at most the largest block's sup.  An unconverged
        solve has a block that ran ``max_iter`` times."""
        h = 1.0 / 32
        noise = NoiseDraw(benchmark_spec(), *window_steps(-1.0, 2.0, h), h, m, seed)
        res = picard_solve(
            benchmark_system(), preset_coefficients("example41"), noise, tol=tol,
            max_iter=max_iter, w=steps(1.0, h), threads=threads,
        )
        if res.converged:
            assert res.gap_trace[-1]["gap"] <= tol
            assert res.final_gap <= tol
        else:
            assert max(res.block_iterations) == max_iter

    def test_kept_points_are_rows_of_the_full_solve(self):
        """A solve that keeps some grid points holds, at each, the states of
        the solve that keeps every point, bit for bit, with the same trace
        and counts, for 1 and 2 workers; ``rows`` finds them, and refuses a
        point the solve did not keep.  Keep lists that are not increasing
        grid points of the window are refused."""
        sysd, cs, h = benchmark_system(), preset_coefficients("example41"), 1.0 / 32
        noise = NoiseDraw(benchmark_spec(), *window_steps(-1.0, 2.0, h), h, 150, 5)
        solve = dict(tol=1e-14, w=steps(1.0, h))
        full = picard_solve(sysd, cs, noise, **solve)
        keep = [0, 5, 6, 40, 96]
        for threads in (1, 2):
            res = picard_solve(sysd, cs, noise, threads=threads, keep=keep, **solve)
            assert res.ensemble.points.tolist() == keep
            assert res.ensemble.n_steps == noise.n_steps
            np.testing.assert_array_equal(res.ensemble.values, full.ensemble.values[:, keep])
            assert _strip_wall(res.gap_trace) == _strip_wall(full.gap_trace)
            assert res.block_iterations == full.block_iterations
        assert res.ensemble.rows([6, 96]).tolist() == [2, 4]
        with pytest.raises(SolverError, match="does not hold"):
            res.ensemble.rows([7])
        every = picard_solve(sysd, cs, noise, keep=range(noise.n_steps + 1), **solve)
        assert every.ensemble.points is None
        for bad in ([], [3, 3], [5, 2], [-1, 2], [0, noise.n_steps + 1]):
            with pytest.raises(SolverError, match="keep must be increasing"):
                picard_solve(sysd, cs, noise, keep=bad, **solve)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cli_solve_memory_grows_by_the_kept_states(self, tmp_path, threads):
        """An in-process ``picard`` run keeps the states at the grid points
        that ensemble.csv writes, not the ensemble, and holds one block's
        noise per worker, not the run's noise sample: from 128 to 1024
        paths of example41 at h = 1/512 (every point, then every 7th,
        written) its traced peak grows by at most the kept states' growth
        plus two blocks' increments and states of the one coordinate S
        reaches (3 MiB each).  Measured: -6.5 to 1.5 MiB at 1 worker,
        where the first run also imports, and 3.1 MiB at 2, two workers'
        block states; holding the whole ensemble, as the solve did before
        its blocks stopped on their own, it grew by 33.6-41.4 MiB, and
        drawing the whole noise sample before the solve, by 23.1 MiB at 1
        worker and 24.7 MiB at 2."""
        from levyap.cli import main

        n = 3072
        held = []
        for m in (128, 1024):
            out = tmp_path / str(m)
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(
                        ["picard", "--preset", "example41", "--dt", "1/512", "--paths", str(m),
                         "--threads", threads, "--out", str(out)]
                    )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            stride = json.loads((out / "run_meta.json").read_text())["csv_stride"]
            held.append(peak - m * len(range(0, n + 1, stride)) * 8)
        block = BLOCK_PATHS * (n + (n + 1)) * 8
        assert held[1] - held[0] <= 2 * block, held

    def test_l2_increments_shrink_linearly_near_zero_lag(self):
        """Mean-square continuity of the fixed point: increments over lag
        delta are bounded by C * delta and trend monotonically."""
        sysd = benchmark_system()
        noise = sample_noise(
            benchmark_spec(), *window_steps(-2.0, 2.0, 1.0 / 128), 1.0 / 128, 64, seed=15
        )
        res = picard_solve(
            sysd, preset_coefficients("example41"), noise, tol=1e-20, w=steps(1.0, noise.h)
        )
        ens = res.ensemble
        h = ens.h
        lags = [h, 2 * h, 4 * h, 8 * h, 16 * h]
        t0 = 0.0
        incs = [l2_increment(ens, t0 + lag, t0) for lag in lags]
        c_fit = max(inc / lag for inc, lag in zip(incs, lags))
        assert all(inc <= c_fit * lag * (1 + 1e-9) for inc, lag in zip(incs, lags))
        # averaged over several anchors the trend must be nondecreasing
        anchors = [-1.0, -0.5, 0.0, 0.5, 1.0]
        avg = [
            float(np.mean([l2_increment(ens, t + lag, t) for t in anchors]))
            for lag in lags
        ]
        assert all(a <= b * (1 + 0.25) for a, b in zip(avg[:-1], avg[1:]))


# ---------------------------------------------------------------------------
# recursion oracle for the integral operator
# ---------------------------------------------------------------------------


def _strip_wall(trace):
    return [{k: v for k, v in rec.items() if k != "wall_ms"} for rec in trace]


def _sup_mean_squares(values: np.ndarray, prev: np.ndarray):
    """Oracle of the Picard moment and gap from two whole ensembles: the
    largest values over the grid of the path-averages of ||v(t)||^2 and
    of ||v(t) - prev(t)||^2.  Each block of paths is squared in one
    buffer and summed over its paths by numpy; the block sums are added
    in block order."""
    m, n, d = values.shape
    sums = [np.zeros(n * d), np.zeros(n * d)]
    buf = np.empty((min(m, BLOCK_PATHS), n, d))
    for lo in range(0, m, BLOCK_PATHS):
        v = values[lo : lo + BLOCK_PATHS]
        b = buf[: len(v)]
        np.multiply(v, v, out=b)
        sums[0] += b.reshape(len(v), -1).sum(axis=0)
        np.subtract(v, prev[lo : lo + BLOCK_PATHS], out=b)
        b *= b
        sums[1] += b.reshape(len(v), -1).sum(axis=0)
    return tuple(float(s.reshape(n, d).sum(axis=1).max()) / m for s in sums)


def _out_of_place_picard(sysd, cs, noise, tol, w, initial=None, max_iter=60):
    """Picard iteration by repeated ``apply_S`` with both iterates kept,
    breadth-first, from the ensemble ``initial`` (zero by default), until
    the gap is at most ``tol`` or ``max_iter`` iterations are done: the
    final values and the gap trace without wall times."""
    current = initial
    if current is None:
        zero = np.zeros((noise.n_paths, noise.n_steps + 1, sysd.dim))
        current = PathEnsemble(
            h=noise.h, k_lo=noise.k_lo, values=zero, dim=sysd.dim, coords=range(sysd.dim)
        )
    trace = []
    for it in range(1, max_iter + 1):
        nxt, _ = apply_S(sysd, cs, noise, current, w)
        moment, gap = _sup_mean_squares(dense(nxt), dense(current))
        trace.append({"k": it, "gap": gap, "sup_second_moment": moment})
        current = nxt
        if gap <= tol:
            break
    return dense(current), trace


def _jump_diffusion_spec() -> LevyProcessSpec:
    return LevyProcessSpec(
        dim=1,
        covariance=np.eye(1),
        jumps=(
            JumpComponent(rate=6.0, marks=UniformIntervalMark(-0.5, 0.5)),
            JumpComponent(rate=3.0, marks=UniformIntervalMark(1.0, 2.0)),
        ),
    )


def _mixed_coefficients(d: int) -> CoefficientSet:
    """Every state coordinate gets drift, diffusion and both jump terms,
    each reading the next coordinate, so all modes are forced."""
    nxt = [(i + 1) % d for i in range(d)]
    return CoefficientSet(
        dim_state=d,
        dim_noise=1,
        drift=tuple(
            (CoefficientTerm(0.3 + 0.1 * i, "bounded_ratio", coord=nxt[i]),
             CoefficientTerm(0.2, "const"))
            for i in range(d)
        ),
        diffusion=tuple(((CoefficientTerm(0.1, "linear", coord=nxt[i]),),) for i in range(d)),
        jump_small=tuple(
            (CoefficientTerm(0.1, "linear", coord=i, mark_weights=(1.0,)),) for i in range(d)
        ),
        jump_large=tuple((CoefficientTerm(0.05, "const", mark_weights=(1.0,)),) for i in range(d)),
        lipschitz=Fraction(1, 2),
    )


def _signal_jump_coefficients() -> CoefficientSet:
    """Two state coordinates on two-dimensional noise: a diffusion row
    with both noise columns, outer and inner signals, small and large
    jump terms with mark weights, a small jump term without them."""
    freqs = (math.sqrt(2.0), math.sqrt(3.0))
    inner = QuasiPeriodicSignal.parse("c1 + s2", freqs)
    outer = QuasiPeriodicSignal.parse("(1 + c2) / (3 + s1)", freqs)
    return CoefficientSet(
        dim_state=2,
        dim_noise=2,
        drift=(
            (CoefficientTerm(0.3, "bounded_ratio", coord=1, outer=outer),),
            (CoefficientTerm(0.2, "const"), CoefficientTerm(-0.1, "linear", coord=0)),
        ),
        diffusion=(
            (
                (CoefficientTerm(0.1, "linear", coord=1),),
                (CoefficientTerm(0.15, "sin_shift", coord=0, inner=inner),),
            ),
            ((CoefficientTerm(0.05, "const", outer=outer),), ()),
        ),
        jump_small=(
            (CoefficientTerm(0.1, "linear", coord=0, mark_weights=(1.0, -0.5)),),
            (CoefficientTerm(0.05, "const"),),
        ),
        jump_large=(
            (),
            (CoefficientTerm(0.05, "bounded_ratio", coord=1, mark_weights=(0.5, 1.0)),),
        ),
        lipschitz=Fraction(1, 2),
    )


def _two_dim_spec() -> LevyProcessSpec:
    """Correlated two-dimensional Wiener part; small jumps from an annulus
    (mean mark zero) and at a fixed point (mean mark nonzero); large jumps."""
    return LevyProcessSpec(
        dim=2,
        covariance=np.array([[1.0, 0.3], [0.3, 0.5]]),
        jumps=(
            JumpComponent(rate=5.0, marks=UniformAnnulusMark(0.1, 0.6, 2)),
            JumpComponent(rate=2.0, marks=PointMark((0.4, -0.2))),
            JumpComponent(rate=3.0, marks=UniformAnnulusMark(1.0, 1.5, 2)),
        ),
    )


def _sparse_coefficients(d: int) -> CoefficientSet:
    """Three state coordinates on two-dimensional noise with empty
    entries: no drift on coordinate 1, diffusion only in entries (0, 0)
    and (1, 1), large jumps only on coordinate 2.  Signals enter as an
    outer factor and as the inner shift of ``sin_shift``; the small-jump
    term of coordinate 1 has no mark weights, so its compensator is
    rate * term, and coordinate 2's compensator has no diffusion to
    subtract from."""
    assert d == 3
    freqs = (math.sqrt(2.0), math.sqrt(3.0))
    inner = QuasiPeriodicSignal.parse("c1 + s2", freqs)
    outer = QuasiPeriodicSignal.parse("(1 + c2) / (3 + s1)", freqs)
    return CoefficientSet(
        dim_state=3,
        dim_noise=2,
        drift=(
            (CoefficientTerm(0.3, "bounded_ratio", coord=2, outer=outer),),
            (),
            (CoefficientTerm(0.2, "const"), CoefficientTerm(-0.1, "linear", coord=1)),
        ),
        diffusion=(
            ((CoefficientTerm(0.1, "linear", coord=1),), ()),
            ((), (CoefficientTerm(0.15, "sin_shift", coord=0, inner=inner),)),
            ((), ()),
        ),
        jump_small=(
            (),
            (CoefficientTerm(0.1, "linear", coord=2),),
            (CoefficientTerm(0.05, "const", outer=outer, mark_weights=(1.0, -0.5)),),
        ),
        jump_large=(
            (),
            (),
            (CoefficientTerm(0.05, "linear", coord=0, mark_weights=(0.5, 1.0)),),
        ),
        lipschitz=Fraction(1, 2),
    )


def _unreachable_coefficients(d: int) -> CoefficientSet:
    """Drift, diffusion and both jump terms on the stable coordinates 0
    and 1 of ``_rotation_system``, every one reading its unstable
    coordinate 2, which no term acts on: S cannot reach coordinate 2,
    but its values enter the other two."""
    assert d == 3
    return CoefficientSet(
        dim_state=3,
        dim_noise=1,
        drift=(
            (CoefficientTerm(0.4, "bounded_ratio", coord=2),),
            (CoefficientTerm(0.2, "const"), CoefficientTerm(-0.3, "linear", coord=2)),
            (),
        ),
        diffusion=(((CoefficientTerm(0.1, "linear", coord=2),),), ((),), ((),)),
        jump_small=(
            (),
            (CoefficientTerm(0.1, "linear", coord=2, mark_weights=(1.0,)),),
            (),
        ),
        jump_large=((CoefficientTerm(0.05, "linear", coord=2, mark_weights=(1.0,)),), (), ()),
        lipschitz=Fraction(1, 2),
    )


def _coupled_coefficients(d: int) -> CoefficientSet:
    """Diffusion on coordinate 1 of ``_unstable_jordan_system`` only,
    reading its stable coordinate 2, which nothing forces: the Jordan
    block's first mode is reached only through its coupling to the
    second."""
    assert d == 3
    return CoefficientSet(
        dim_state=3,
        dim_noise=1,
        drift=((), (), ()),
        diffusion=(((),), ((CoefficientTerm(0.2, "linear", coord=2),),), ((),)),
        jump_small=((), (), ()),
        jump_large=((), (), ()),
        lipschitz=Fraction(1, 2),
    )


def _rotation_system():
    """Stable rotation (eigenvalues -1 +- 3i) next to an unstable mode."""
    a = np.array([[-1.0, 3.0, 0.0], [-3.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
    sysd = DichotomousSystem.create(a, np.diag([1.0, 1.0, 0.0]), k=1.0, omega=1.0)
    return sysd, 1 / 32, (-2.0, 2.0)


def _jordan_system():
    """Defective stable Jordan block next to an unstable mode."""
    a = np.array([[-2.0, 1.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 3.0]])
    sysd = DichotomousSystem.create(a, np.diag([1.0, 1.0, 0.0]), k=1.5, omega=1.0)
    return sysd, 1 / 32, (-2.0, 2.0)


def _unstable_jordan_system():
    """Defective unstable Jordan block next to a stable mode."""
    a = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
    sysd = DichotomousSystem.create(a, np.diag([0.0, 0.0, 1.0]), k=1.5, omega=1.0)
    return sysd, 1 / 32, (-2.0, 2.0)


def _stiff_system():
    """A stable mode with e^{-300 h} per step, so lambda^n underflows."""
    a = np.diag([-300.0, -2.0, 3.0])
    sysd = DichotomousSystem.create(a, np.diag([1.0, 1.0, 0.0]), k=1.0, omega=2.0)
    return sysd, 1 / 64, (-2.0, 4.0)


# system, coefficients and noise spec of each recursion-oracle case
_ORACLE_CASES = {
    "rotation": (_rotation_system, _mixed_coefficients, _jump_diffusion_spec),
    "jordan": (_jordan_system, _mixed_coefficients, _jump_diffusion_spec),
    "stiff": (_stiff_system, _mixed_coefficients, _jump_diffusion_spec),
    "sparse": (_rotation_system, _sparse_coefficients, _two_dim_spec),
    "unreachable": (_rotation_system, _unreachable_coefficients, _jump_diffusion_spec),
    "coupled": (_unstable_jordan_system, _coupled_coefficients, _jump_diffusion_spec),
}


# ---------------------------------------------------------------------------
# the first sweep from the zero start
# ---------------------------------------------------------------------------


def _oblique_system():
    """A stable and an unstable mode along the non-orthogonal eigenvectors
    (1, 0) and (1, 1): P is an oblique projection."""
    v = np.array([[1.0, 1.0], [0.0, 1.0]])
    vinv = np.linalg.inv(v)
    a = v @ np.diag([-1.0, 2.0]) @ vinv
    p = v @ np.diag([1.0, 0.0]) @ vinv
    return DichotomousSystem.create(a, p, 2.0, 1.0), 1 / 32, (-2.0, 2.0)


# systems of the zero-start pins: real diagonal halves, a complex Schur
# half (rotation), a reversed Jordan block, an oblique projection
_ZERO_START_SYSTEMS = {
    "diagonal": lambda: (benchmark_system(), 1 / 32, (-1.0, 2.0)),
    "rotation": _rotation_system,
    "unstable_jordan": _unstable_jordan_system,
    "oblique": _oblique_system,
}
_FREQS = (math.sqrt(2.0), math.sqrt(3.0))
_SIGNALS = (
    QuasiPeriodicSignal.parse("c1 + s2", _FREQS),
    QuasiPeriodicSignal.parse("(1 + c2) / (3 + s1)", _FREQS),
    QuasiPeriodicSignal.parse("s1 - 0.5", _FREQS),
)


@st.composite
def _terms(draw, d: int, q: int, most: int, marks: bool = False, least: int = 0):
    """Random coefficient terms on d state coordinates and q noise
    dimensions: every kernel, scale 1.0 (not multiplied) among others,
    with or without an outer signal, mark weights when ``marks``."""
    terms = []
    for _ in range(draw(st.integers(least, most))):
        kernel = draw(st.sampled_from(["const", "linear", "bounded_ratio", "sin_shift"]))
        weights = (1.0, -0.5)[:q]
        terms.append(
            CoefficientTerm(
                draw(st.sampled_from([1.0, 0.25, -0.3])),
                kernel,
                coord=draw(st.integers(0, d - 1)),
                outer=draw(st.sampled_from((None,) + _SIGNALS)),
                inner=draw(st.sampled_from(_SIGNALS)) if kernel == "sin_shift" else None,
                mark_weights=draw(st.sampled_from([None, weights])) if marks else None,
            )
        )
    return tuple(terms)


@st.composite
def _zero_start_case(draw, d: int, q: int, first_row: str):
    """Coefficients whose first state coordinate has ``first_row``
    stochastic forcing: the compensator of small jumps whose terms have
    no mark weights, and no diffusion ("compensator"), or large jumps
    only ("jumps"); the other rows are drawn."""
    drift, diffusion, small, large = [], [], [], []
    for i in range(d):
        kind = first_row if i == 0 else draw(st.sampled_from(["all", "diffusion", "none"]))
        drift.append(draw(_terms(d, q, 2)))
        diffusion.append(
            tuple(draw(_terms(d, q, 1)) if kind in ("all", "diffusion") else () for _ in range(q))
        )
        if kind == "compensator":
            small.append(draw(_terms(d, q, 1, least=1)))
        else:
            small.append(draw(_terms(d, q, 1, marks=True)) if kind == "all" else ())
        if kind in ("all", "jumps"):
            large.append(draw(_terms(d, q, 1, marks=True, least=int(kind == "jumps"))))
        else:
            large.append(())
    return CoefficientSet(
        dim_state=d,
        dim_noise=q,
        drift=tuple(drift),
        diffusion=tuple(diffusion),
        jump_small=tuple(small),
        jump_large=tuple(large),
        lipschitz=Fraction(1, 2),
    )


@pytest.mark.parametrize("first_row", ["compensator", "jumps"])
@pytest.mark.parametrize("system", sorted(_ZERO_START_SYSTEMS))
@given(data=st.data())
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_zero_start_sweep_is_the_general_sweep(system, first_row, set_chunk, data):
    """The first Picard sweep evaluates each grid term on one (1, n) row
    of states per chunk and broadcasts it over the chunk's paths; on the
    zero ensemble that is bit for bit the general sweep, which evaluates
    every path: the new states, their moment sums and their gap sums.
    Each example sets its own chunk, so the fixture is shared safely."""
    sysd, h, window = _ZERO_START_SYSTEMS[system]()
    spec = data.draw(st.sampled_from([_jump_diffusion_spec, _two_dim_spec]))()
    cs = data.draw(_zero_start_case(sysd.dim, spec.dim, first_row))
    noise = sample_noise(spec, *window_steps(*window, h), h, 5, seed=data.draw(st.integers(0, 99)))
    plan = _Plan.build(sysd, cs, noise, steps(0.5, h))
    set_chunk(data.draw(st.sampled_from([None, 1, 2, 5])), noise.n_steps)
    shape = (len(plan.reach), noise.n_paths, noise.n_steps + 1)
    zero, general = np.zeros(shape), np.zeros(shape)
    sums = _sweep_blocks(plan, zero, zero=True)
    ref = _sweep_blocks(plan, general, zero=False)
    assert zero.tobytes() == general.tobytes()
    for a, b in zip(sums, ref):
        assert a.tobytes() == b.tobytes()


def _sweep_blocks(plan, values, zero):
    """S applied in place to the coordinate-major ``values``, the
    coordinates of ``plan.reach``, by the solver's block sweep, block by
    block on one worker: the moment and gap sums of every block, in
    block order."""
    noise = plan.noise
    blocks = _blocks(noise.n_paths, noise.n_steps)
    scratch = _Scratch(plan, max(hi - lo for chunks in blocks for lo, hi in chunks))
    sums = []
    for chunks in blocks:
        lo, hi = chunks[0][0], chunks[-1][1]
        drawn = _draw_block(plan, lo, hi)
        sums += _sweep_block(plan, values[:, lo:hi], chunks, scratch, drawn, zero)
    return sums


def test_zero_sweep_evaluates_one_row(monkeypatch, set_chunk):
    """Each chunk of the zero sweep evaluates the grid terms on one row of
    states, a general sweep on every path of the chunk: the rows of each
    value that ``term_value`` writes, as the solver looks it up (the
    first term of every drift, diffusion and compensator entry), on the
    "sparse" oracle case, whose entries are of every kind, in two chunks
    of 3 paths."""
    import levyap.solver as solver_module

    rows = []
    term_value = solver_module.term_value

    def recording(term, columns, out):
        rows.append(out.shape[0])
        return term_value(term, columns, out)

    monkeypatch.setattr(solver_module, "term_value", recording)
    system, coefficients, spec = _ORACLE_CASES["sparse"]
    sysd, h, window = system()
    noise = sample_noise(spec(), *window_steps(*window, h), h, 6, seed=23)
    plan = _Plan.build(sysd, coefficients(sysd.dim), noise, steps(1.0, h))
    values = np.zeros((len(plan.reach), noise.n_paths, noise.n_steps + 1))
    set_chunk(3, noise.n_steps)
    _sweep_blocks(plan, values, zero=True)
    zero_rows = rows[:]
    rows.clear()
    _sweep_blocks(plan, values, zero=False)
    assert zero_rows == [1] * 12 and rows == [3] * 12


def _rare_jump_coefficients(d: int) -> CoefficientSet:
    """Coordinates 0 and 1 are forced by jumps alone (the small-jump
    marks have mean zero, so no compensator), coordinate 2 by diffusion;
    with ``_rare_jump_spec`` most paths have no jump event, so most
    chunks of a path or two fill those rows with no event at all."""
    assert d == 3
    return CoefficientSet(
        dim_state=3,
        dim_noise=1,
        drift=(
            (),
            (CoefficientTerm(0.2, "const"), CoefficientTerm(-0.1, "linear", coord=0)),
            (CoefficientTerm(0.3, "bounded_ratio", coord=1),),
        ),
        diffusion=(((),), ((),), ((CoefficientTerm(0.1, "linear", coord=0),),)),
        jump_small=((CoefficientTerm(0.1, "linear", coord=2, mark_weights=(1.0,)),), (), ()),
        jump_large=((), (CoefficientTerm(0.2, "linear", coord=0, mark_weights=(1.0,)),), ()),
        lipschitz=Fraction(1, 2),
    )


def _rare_jump_spec() -> LevyProcessSpec:
    return LevyProcessSpec(
        dim=1,
        covariance=np.eye(1),
        jumps=(
            JumpComponent(rate=0.1, marks=UniformIntervalMark(-0.5, 0.5)),
            JumpComponent(rate=0.1, marks=UniformIntervalMark(1.0, 2.0)),
        ),
    )


# sha256 of the values and the (gap, moment) trace of each pinned solve
_NONDIAGONAL_PINS = {
    "rotation": "1e2e2faa58a8e3487031804b5bbc99d3c2c8ebbd0e34682a137af1047db70aff",
    "jordan": "60c2cc7301091ae78fddb058dcef31ff363c871538e101c12b6c800578f89dea",
    "stiff": "29c068f1a0e426a30cec96b271702f998af8b94a4100f31f97adcf3c5d1c4447",
    "sparse": "a5782d8634a5997561565485329d31be470f51f0088d98e2d722c2d8e7606211",
    "unreachable": "5796233e0205b2f89756e7279c332b13fc04bb11b5cabbf8901a774b390f23a7",
    "coupled": "c8292e4f92961a600a98a14cf8633e0f0486178f38a685b559e372ccc1e2cb21",
    "oblique": "83d94915fe2b02d02c27b16f23a733fff47cb616b8aab5477a3d3d8292257b93",
    "rare_jumps": "b6ca1d5ab7389a06137696b131cdb2534c192a4c33c99e812476a9649fe9b16d",
}


@pytest.mark.parametrize("case", sorted(_NONDIAGONAL_PINS))
def test_nondiagonal_solves_are_pinned(case, set_chunk):
    """A sha256 of the values and of the gaps and moments of a 4-iteration
    solve of each recursion-oracle case and of the oblique system with
    mixed coefficients, taken before the chunk kernel's structure was
    planned once per solve: a reordered sum on a rotating, defective,
    stiff or oblique system changes it, at any chunking and thread
    count.  "unreachable" converges in 2 iterations and "coupled",
    whose only term reads a coordinate nothing forces, in 1.
    "rare_jumps" has rows that only jumps fill, in chunks with and
    without jump events."""
    cases = {
        **_ORACLE_CASES,
        "oblique": (_oblique_system, _mixed_coefficients, _jump_diffusion_spec),
        "rare_jumps": (_rotation_system, _rare_jump_coefficients, _rare_jump_spec),
    }
    system, coefficients, spec = cases[case]
    sysd, h, window = system()
    noise = sample_noise(spec(), *window_steps(*window, h), h, 9, seed=7)
    for threads, chunk in ((1, None), (2, 2)):
        set_chunk(chunk, noise.n_steps)
        res = picard_solve(
            sysd, coefficients(sysd.dim), noise, tol=1e-30, max_iter=4, w=steps(0.5, h),
            threads=threads,
        )
        digest = hashlib.sha256(dense(res.ensemble).tobytes())
        trace = [[rec["gap"], rec["sup_second_moment"]] for rec in res.gap_trace]
        digest.update(np.array(trace).tobytes())
        assert digest.hexdigest() == _NONDIAGONAL_PINS[case]


@pytest.mark.parametrize("preset", ["example41", "ou_forced", "galerkin_heat"])
def test_preset_solutions_hold_no_negative_zero(preset):
    """The assembly writes a coordinate's first term and adds +0.0, as
    adding it to a zeroed row did, so no state of a preset's solve (the
    ensemble ``picard`` writes and ``apscan`` scans) is -0.0.  Every
    preset has exact zeros: a reached coordinate is zero where its
    accumulations start (the first time of a stable mode, the last of an
    unstable one).  example41's first coordinate, never reached, is not
    stored."""
    cfg = preset_config(preset)
    num = cfg.numerics._replace(n_paths=8)
    run = validate_config(cfg._replace(numerics=num))
    noise = sample_noise(run.spec, run.k_lo, run.n, float(num.h), num.n_paths, cfg.seed)
    res = picard_solve(
        run.system, run.coefficients, noise, tol=float(num.tol), max_iter=num.max_iter, w=run.w
    )
    values = res.ensemble.values
    zeros = values[values == 0.0]
    assert zeros.size and not np.signbit(zeros).any()


def _recursion_oracle(sysd, cs, noise, ens, truncation):
    """S by per-step recursions on the full state: the forward
    accumulation R_{k+1} = e^{Ah}P R_k + inc_P[k] and the backward one
    U_k = e^{-Ah}(I-P) U_{k+1} + inc_J[k], each windowed by subtracting
    the accumulation w steps away."""
    from levyap.coefficients import (
        compensator_terms,
        diffusion_terms,
        drift_terms,
        jump_terms,
        point_values,
    )

    h, n = noise.h, noise.n_steps
    w = round(truncation / h)
    prop_p = sysd.stable_matrix(h)
    ker_p = sysd.stable_kernel_matrix(h)
    win_p = sysd.stable_matrix(w * h)
    prop_j = sysd.unstable_matrix(-h)
    ker_j = sysd.unstable_kernel_matrix(-h)
    win_j = sysd.unstable_matrix(-w * h)

    grid = noise.grid
    y = np.ascontiguousarray(np.swapaxes(ens.values[:, :-1, :], 0, 1))  # (n, q, d)
    q, d = y.shape[1:]
    # one point per (step, path), with the step's time
    ts = np.repeat(grid[:-1], q)
    points = y.reshape(n * q, d)
    f = point_values(drift_terms(cs, ts), points).reshape(n, q, d)
    columns = zip(*diffusion_terms(cs, ts))
    g = np.stack([point_values(c, points) for c in columns], axis=-1).reshape(n, q, d, -1)
    dw = np.swapaxes(noise.dW, 0, 1)  # (n, q, dim W)
    stoch = np.einsum("nqdw,nqw->nqd", g, dw)
    comp = point_values(compensator_terms(cs, noise.spec, ts), points)
    stoch -= h * comp.reshape(n, q, d)
    for e in range(len(noise.event_path)):
        p, k = noise.event_path[e], noise.event_step[e]
        tmap = cs.jump_small if noise.event_region[e] == 0 else cs.jump_large
        terms = jump_terms(tmap, grid[k : k + 1], noise.event_marks[e : e + 1])
        stoch[k, p] += point_values(terms, y[k, p][None])[0]

    inc_p = f @ ker_p.T + stoch @ prop_p.T
    inc_j = f @ ker_j.T + stoch @ sysd.j.T
    r_acc = np.zeros((n + 1, q, d))
    for k in range(n):
        r_acc[k + 1] = r_acc[k] @ prop_p.T + inc_p[k]
    fwd = r_acc.copy()
    fwd[w:] -= r_acc[:-w] @ win_p.T
    u_acc = np.zeros((n + 1, q, d))
    for k in range(n - 1, -1, -1):
        u_acc[k] = u_acc[k + 1] @ prop_j.T + inc_j[k]
    bwd = u_acc.copy()
    bwd[: n + 1 - w] -= u_acc[w:] @ win_j.T
    return np.swapaxes(fwd - bwd, 0, 1)
