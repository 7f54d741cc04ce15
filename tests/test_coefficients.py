"""Coefficient module tests.

Point-evaluation oracles (worked by hand):

- benchmark drift at t = 0, y = (0, 1): (cos 0 + sin 0)/(17 + cos 0)
  times 1/(1 + 1) = (1/18)(1/2) = 1/36;
- benchmark diffusion there: sin(1 + cos 0 + cos 0)/12 = sin(3)/12;
- benchmark large-jump map at t = 1, y2 = 1:
  sin^2(sqrt 3)/(3 + cos(sqrt 2) + cos(sqrt 5))/9;
- interval bound of (c1 + s2)/(17 + c3): numerator in [-2, 2],
  denominator in [16, 18], so [-1/8, 1/8];
- compensator of a mark-linear term w.x with marks uniform on [0.2, 0.8]
  and rate 2: weight = 2 * 0.5 * w.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _grid import preset_coefficients
from _lipschitz_oracles import verify_lipschitz
from levyap.coefficients import (
    KERNELS,
    CoefficientError,
    CoefficientSet,
    CoefficientTerm,
    QuasiPeriodicSignal,
    SignalParseError,
    UnboundedSignalError,
    _trig_interval,
    compensator_terms,
    diffusion_terms,
    drift_terms,
    jump_terms,
    point_values,
)
from levyap.config import preset_config, preset_names, validate_config
from levyap.noise import (
    JumpComponent,
    LevyProcessSpec,
    PointMark,
    UniformAnnulusMark,
    UniformIntervalMark,
)

FREQS = (math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0))


def benchmark_noise():
    return LevyProcessSpec(
        dim=1,
        covariance=np.eye(1),
        jumps=(
            JumpComponent(1.0, UniformAnnulusMark(0.2, 0.8, 1)),
            JumpComponent(1.0, PointMark((1.5,))),
        ),
    )


# ---------------------------------------------------------------------------
# parsing and intervals
# ---------------------------------------------------------------------------


def test_parser_precedence_and_parens():
    sig = QuasiPeriodicSignal.parse("1 + 2 * 3", ())
    assert sig(0.0) == pytest.approx(7.0)
    sig = QuasiPeriodicSignal.parse("(1 + 2) * 3", ())
    assert sig(0.0) == pytest.approx(9.0)
    sig = QuasiPeriodicSignal.parse("-2 * -3", ())
    assert sig(0.0) == pytest.approx(6.0)
    sig = QuasiPeriodicSignal.parse("1 / 4", ())
    assert sig(0.0) == pytest.approx(0.25)


def test_parser_oscillators():
    sig = QuasiPeriodicSignal.parse("c1 + s2", FREQS)
    t = 0.37
    assert sig(t) == pytest.approx(math.cos(FREQS[0] * t) + math.sin(FREQS[1] * t))


def test_parser_errors():
    with pytest.raises(SignalParseError, match="trailing"):
        QuasiPeriodicSignal.parse("1 2", ())
    with pytest.raises(SignalParseError, match="bad character"):
        QuasiPeriodicSignal.parse("1 @ 2", ())
    with pytest.raises(SignalParseError, match="no frequency"):
        QuasiPeriodicSignal.parse("c2", (1.0,))
    with pytest.raises(SignalParseError, match="frequencies"):
        QuasiPeriodicSignal.parse("c1", (-1.0,))
    with pytest.raises(SignalParseError, match="end of expression"):
        QuasiPeriodicSignal.parse("1 +", ())


def test_interval_bound_of_benchmark_signal():
    sig = QuasiPeriodicSignal.parse("(c1 + s2) / (17 + c3)", FREQS)
    assert sig.bounds() == (-0.125, 0.125)


def test_interval_certificate_rejects_zero_denominator():
    with pytest.raises(UnboundedSignalError, match="contains zero"):
        QuasiPeriodicSignal.parse("1 / (c1)", (1.0,))
    with pytest.raises(UnboundedSignalError):
        QuasiPeriodicSignal.parse("1 / (2 + c1 + s1)", (1.0,))


def test_trig_of_subexpression_interval_is_exact():
    # inner interval [-1, 1] has no critical point of sin, so the exact
    # range is [sin(-1), sin(1)]
    sig = QuasiPeriodicSignal.parse("sin(c1)", (2.0,))
    lo, hi = sig.bounds()
    assert lo == pytest.approx(math.sin(-1.0))
    assert hi == pytest.approx(math.sin(1.0))
    # cos over [-1, 1] peaks at the interior critical point 0
    sig = QuasiPeriodicSignal.parse("cos(c1)", (2.0,))
    lo, hi = sig.bounds()
    assert hi == pytest.approx(1.0)
    assert lo == pytest.approx(math.cos(1.0))


@given(t=st.floats(min_value=-200.0, max_value=200.0))
@settings(max_examples=50, deadline=None)
def test_samples_stay_inside_certified_bounds(t):
    for text in ("(c1 + s2) / (17 + c3)", "s2 * s2 / (3 + c1 + c3)", "sin(c2 + c1)"):
        sig = QuasiPeriodicSignal.parse(text, FREQS)
        lo, hi = sig.bounds()
        v = float(sig(t))
        assert lo - 1e-12 <= v <= hi + 1e-12


@pytest.mark.parametrize(
    "text",
    ["9" * 400, "0*" + "9" * 400, "sin(" + "9" * 400 + ")", "9" * 200 + " * " + "9" * 200],
    ids=["huge-literal", "zero-times-huge", "sine-of-huge", "overflowing-product"],
)
def test_non_finite_interval_is_unbounded(text):
    """A literal past the largest double reads as inf, and a product of
    finite literals can overflow: the certificate rejects either,
    instead of bounding the signal by (inf, inf) or (nan, nan)."""
    with pytest.raises(UnboundedSignalError, match="not finite"):
        QuasiPeriodicSignal.parse(text, (1.0,))


@st.composite
def _trig_arcs(draw):
    """An interval [lo, hi] with endpoints up to 1e300: anywhere, or just
    around a critical point k pi / 2 of sin or cos, of any width."""
    if draw(st.booleans()):
        lo = draw(st.floats(-1e300, 1e300))
    else:
        lo = draw(st.integers(-(10**12), 10**12)) * math.pi / 2 - draw(st.floats(0.0, 1e-3))
    width = draw(st.one_of(st.floats(0.0, 7.0), st.floats(0.0, 1e300)))
    return lo, lo + width


@given(fn=st.sampled_from(["sin", "cos"]), arc=_trig_arcs())
@settings(max_examples=200, deadline=None)
def test_trig_interval_is_quick_and_holds_every_sample(fn, arc):
    """The bounds of sin and cos over an interval take a fixed amount of
    work whatever the size of the endpoints, and hold the function at
    2001 points spread over the interval, ends included."""
    lo, hi = arc
    t0 = time.perf_counter()
    b_lo, b_hi = _trig_interval(fn, lo, hi)
    assert time.perf_counter() - t0 < 0.5
    f = getattr(math, fn)
    vals = [f(x) for x in np.linspace(lo, hi, 2001)]
    assert b_lo - 1e-15 <= min(vals) and max(vals) <= b_hi + 1e-15
    assert -1.0 <= b_lo <= b_hi <= 1.0


@pytest.mark.parametrize(
    "wrap",
    [
        lambda k: "(" * k + "c1" + ")" * k,
        lambda k: "sin(" * k + "c1" + ")" * k,
        lambda k: "-" * k + "c1",
        lambda k: " + ".join(["c1"] * (k + 1)),
        lambda k: "(" * (k // 2) + " * ".join(["c1"] * (k - k // 2 + 1)) + ")" * (k // 2),
    ],
    ids=["brackets", "functions", "minus", "sum", "product-in-brackets"],
)
def test_depth_limit(wrap):
    """Brackets, functions, unary minus and each operator of a chain
    count one level: 100 levels parse and evaluate, 101 raise a parse
    error that names the limit, before any recursion runs out."""
    sig = QuasiPeriodicSignal.parse(wrap(100), (1.0,))
    assert np.all(np.isfinite(sig(np.linspace(0.0, 1.0, 5))))
    with pytest.raises(SignalParseError, match="deeper than 100 levels"):
        QuasiPeriodicSignal.parse(wrap(101), (1.0,))


# ---------------------------------------------------------------------------
# kernel catalog
# ---------------------------------------------------------------------------


@given(
    y=st.floats(min_value=-5.0, max_value=5.0),
    z=st.floats(min_value=-5.0, max_value=5.0),
    aux=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_kernel_lipschitz_constants(y, z, aux):
    for name, kern in KERNELS.items():
        a = kern.func(np.array(y), aux)
        b = kern.func(np.array(z), aux)
        assert abs(a - b) <= kern.lipschitz * abs(y - z) + 1e-12


# ---------------------------------------------------------------------------
# evaluation oracles
# ---------------------------------------------------------------------------


def test_benchmark_drift_point_value():
    cs = preset_coefficients("example41")
    y = np.array([[0.0, 1.0]])
    f = point_values(drift_terms(cs, np.array([0.0])), y)
    assert f[0, 0] == 0.0
    assert f[0, 1] == pytest.approx(1.0 / 36.0, rel=1e-12)


def test_benchmark_diffusion_point_value():
    cs = preset_coefficients("example41")
    column = [row[0] for row in diffusion_terms(cs, np.array([0.0]))]
    g = point_values(column, np.array([[0.0, 1.0]]))
    assert g.shape == (1, 2)
    assert g[0, 0] == 0.0
    assert g[0, 1] == pytest.approx(math.sin(3.0) / 12.0, rel=1e-12)


def test_benchmark_jump_point_values():
    cs = preset_coefficients("example41")
    y = np.array([[0.0, 1.0]])
    x = np.array([[1.5]])
    small = point_values(jump_terms(cs.jump_small, np.array([0.0]), x), y)
    assert small[0, 1] == pytest.approx(0.1)
    oracle = math.sin(math.sqrt(3.0)) ** 2 / (
        3.0 + math.cos(math.sqrt(2.0)) + math.cos(math.sqrt(5.0))
    )
    large = point_values(jump_terms(cs.jump_large, np.array([1.0]), x), y)
    assert large[0, 1] == pytest.approx(oracle / 9.0, rel=1e-12)


# ---------------------------------------------------------------------------
# compensator
# ---------------------------------------------------------------------------


def test_compensator_x_independent_map():
    cs = preset_coefficients("example41")
    spec = benchmark_noise()
    y = np.array([[0.0, 2.0]])
    comp = point_values(compensator_terms(cs, spec, np.array([0.0])), y)
    # rate 1.0 times F = y2/10
    assert comp[0, 1] == pytest.approx(0.2)
    assert comp[0, 0] == 0.0


def test_compensator_mark_linear_matches_quadrature():
    w = (2.0,)
    term = CoefficientTerm(1.0, "linear", coord=0, mark_weights=w)
    cs = CoefficientSet(
        dim_state=1,
        dim_noise=1,
        drift=((),),
        diffusion=(((),),),
        jump_small=((term,),),
        jump_large=((),),
        lipschitz=4.0,
    )
    spec = LevyProcessSpec(
        dim=1,
        jumps=(JumpComponent(2.0, UniformIntervalMark(0.2, 0.8)),),
    )
    y = np.array([[3.0]])
    comp = point_values(compensator_terms(cs, spec, np.array([0.0])), y)
    # closed form: rate * (w . mean mark) * y = 2 * (2 * 0.5) * 3
    assert comp[0, 0] == pytest.approx(6.0)
    # rate 2 times a 16-point Gauss-Legendre rule for the mark law
    # U(0.2, 0.8): nodes 0.5 + 0.3 u, probabilities g / 2
    u, g = np.polynomial.legendre.leggauss(16)
    acc = sum(
        2.0 * pi * point_values(jump_terms(cs.jump_small, np.array([0.0]), [[xi]]), y)[0, 0]
        for xi, pi in zip(0.5 + 0.3 * u, g / 2.0)
    )
    assert comp[0, 0] == pytest.approx(acc, rel=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_coefficient_set_shape_validation():
    with pytest.raises(CoefficientError, match="drift"):
        CoefficientSet(2, 1, ((),), ((), ()), ((), ()), ((), ()), 1.0)
    with pytest.raises(CoefficientError, match="grid"):
        CoefficientSet(1, 2, ((),), (((),),), ((),), ((),), 1.0)
    with pytest.raises(CoefficientError, match="unknown kernel"):
        CoefficientSet(
            1, 1, ((CoefficientTerm(1.0, "cubic"),),), (((),),), ((),), ((),), 1.0
        )
    with pytest.raises(CoefficientError, match="inner"):
        CoefficientSet(
            1, 1, ((CoefficientTerm(1.0, "sin_shift"),),), (((),),), ((),), ((),), 1.0
        )
    with pytest.raises(CoefficientError, match="out of range"):
        CoefficientSet(
            1, 1, ((CoefficientTerm(1.0, "linear", coord=3),),), (((),),), ((),), ((),), 1.0
        )
    with pytest.raises(CoefficientError, match="positive"):
        CoefficientSet(1, 1, ((),), (((),),), ((),), ((),), 0.0)


# ---------------------------------------------------------------------------
# empirical Lipschitz check
# ---------------------------------------------------------------------------


def test_verify_lipschitz_benchmark_passes():
    rep = verify_lipschitz(preset_coefficients("example41"), benchmark_noise(), n_samples=1500)
    assert rep.passed
    assert rep.declared == pytest.approx(1.0 / 64.0)
    assert all(v <= rep.declared * rep.slack for v in rep.observed.values())
    # the small-jump map has ratio exactly rate * (1/10)^2 = 0.01
    assert rep.observed["jump_small"] == pytest.approx(0.01, abs=1e-6)


def test_verify_lipschitz_detects_violation():
    cs = preset_coefficients("example41")
    bad = CoefficientSet(
        dim_state=cs.dim_state,
        dim_noise=cs.dim_noise,
        drift=cs.drift,
        diffusion=cs.diffusion,
        jump_small=cs.jump_small,
        jump_large=cs.jump_large,
        lipschitz=1e-5,
    )
    rep = verify_lipschitz(bad, benchmark_noise(), n_samples=500)
    assert not rep.passed


def test_verify_lipschitz_reports_on_every_preset():
    """Jump maps without mark weights need no mark quadrature, so the
    check runs on galerkin_heat's 8-d annulus marks too; its small-jump
    map (rate 2, scale 1/8 on mode 0) stays within the intensity-weighted
    bound 2 * (1/8)^2 = 1/32."""
    for name in preset_names():
        run = validate_config(preset_config(name))
        rep = verify_lipschitz(run.coefficients, run.spec)
        assert set(rep.observed) == {"drift", "diffusion", "jump_small", "jump_large"}
        assert all(math.isfinite(v) and v >= 0.0 for v in rep.observed.values())
        if name == "galerkin_heat":
            assert 0.0 < rep.observed["jump_small"] <= 1.0 / 32.0


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_verify_lipschitz_on_mark_weighted_annulus_jumps(dim):
    """Maps y -> y (d + c w.x) on one state coordinate, small jumps at
    rate 2 with annulus marks (0.5, 0.9) and large jumps at rate 1/2 on a
    point mark p of norm at least 1.  Every sampled ratio is then exact:
    small 2 (d^2 + c^2 |w|^2 E|x|^2 / dim) with E|x|^2 = 0.604/1.2 (the
    mark mean is 0), large 1/2 (d + c w.p)^2 (the cross term counts)."""
    w = tuple(0.1 * (i + 1) for i in range(dim))
    p = tuple(1.3 if i % 2 else -1.2 for i in range(dim))
    d, c = 0.05, 0.2
    jump = (
        (
            CoefficientTerm(d, "linear"),
            CoefficientTerm(c, "linear", mark_weights=w),
        ),
    )
    cs = CoefficientSet(
        dim_state=1,
        dim_noise=dim,
        drift=((),),
        diffusion=(tuple(() for _ in range(dim)),),
        jump_small=jump,
        jump_large=jump,
        lipschitz=1.0,
    )
    spec = LevyProcessSpec(
        dim=dim,
        jumps=(
            JumpComponent(2.0, UniformAnnulusMark(0.5, 0.9, dim)),
            JumpComponent(0.5, PointMark(tuple(p))),
        ),
    )
    rep = verify_lipschitz(cs, spec, n_samples=200)
    ww = sum(v * v for v in w)
    small = 2.0 * (d * d + c * c * ww * (0.604 / 1.2) / dim)
    large = 0.5 * (d + c * sum(a * b for a, b in zip(w, p))) ** 2
    assert rep.observed["jump_small"] == pytest.approx(small, rel=1e-12)
    assert rep.observed["jump_large"] == pytest.approx(large, rel=1e-12)
    assert rep.passed


def test_verify_lipschitz_needs_samples():
    with pytest.raises(CoefficientError, match="100"):
        verify_lipschitz(preset_coefficients("example41"), benchmark_noise(), n_samples=10)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_dimensions():
    """Each preset's maps take the state dimension of its system and the
    noise dimension of its levy.dim."""
    dims = {"example41": (2, 1), "ou_forced": (1, 1), "galerkin_heat": (8, 8)}
    for name in preset_names():
        cs = preset_coefficients(name)
        assert (cs.dim_state, cs.dim_noise) == dims[name]


def test_ou_preset_values():
    """Drift sin(sqrt(2) t) and diffusion 0.3, whatever the state."""
    ou = preset_coefficients("ou_forced")
    t = 0.81
    y = np.array([[7.0]])  # state must not matter
    f = point_values(drift_terms(ou, np.array([t])), y)
    assert f[0, 0] == pytest.approx(math.sin(math.sqrt(2.0) * t))
    g = point_values([row[0] for row in diffusion_terms(ou, np.array([t]))], y)
    assert g[0, 0] == pytest.approx(0.3)


def test_galerkin_preset_scales():
    """Mode k gets diffusion 0.05/(k+1)^2 on its own noise coordinate
    and small jumps 0.125/(k+1)^2 * y_k."""
    gal = preset_coefficients("galerkin_heat")
    decay = 1.0 / np.arange(1.0, 9.0) ** 2
    y = np.arange(1.0, 9.0)[None, :]
    g = np.column_stack(
        [point_values(col, y)[0] for col in zip(*diffusion_terms(gal, np.array([0.5])))]
    )
    assert g == pytest.approx(np.diag(0.05 * decay))
    jumps = point_values(jump_terms(gal.jump_small, np.array([0.5]), np.zeros((1, 8))), y)
    assert jumps[0] == pytest.approx(0.125 * decay * y[0])
