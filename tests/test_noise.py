"""Noise module tests.

Statistical oracles used here and fixed ahead of the assertions:

- uniform marks on [a, b]: E[x] = (a+b)/2, E[x^2] = (b^3 - a^3)/(3(b-a));
  for [0.2, 0.8] that is 0.5 and 0.28.
- annulus radii uniform on [r0, r1]: E[|x|^2] = (r1^3 - r0^3)/(3(r1-r0));
  for [0.5, 0.9] in any dimension that is 0.60333.../1.2 = 0.5033...
- Poisson counts over a window of length T have mean and variance rate*T.
- two-sample KS critical value at the 1% level: 1.628 * sqrt((n+m)/(n*m)).

All randomized checks run on fixed seeds.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyap.noise import (
    JumpComponent,
    LevyProcessSpec,
    NoiseShiftError,
    NoiseSpecError,
    WienerSpec,
    point_mark,
    sample_noise,
    uniform_annulus_mark,
    uniform_interval_mark,
    validate_spec,
)


def make_spec(dim=1, with_jumps=True):
    jumps = ()
    if with_jumps:
        jumps = (
            JumpComponent(2.0, "small", uniform_interval_mark(0.2, 0.8)),
            JumpComponent(0.5, "large", point_mark([1.5] + [0.0] * (dim - 1))),
        )
        if dim > 1:
            jumps = (
                JumpComponent(2.0, "small", uniform_annulus_mark(0.2, 0.8, dim=dim)),
                JumpComponent(0.5, "large", point_mark([1.5] + [0.0] * (dim - 1))),
            )
    return LevyProcessSpec(dim=dim, wiener=WienerSpec(dim, np.eye(dim)), jumps=jumps)


_COLUMNS = ("dW", "event_path", "event_step", "event_region", "event_marks", "event_times")


def same_sample(a, b) -> bool:
    """Exact equality of two samples: grids, increments and events."""
    return (a.h, a.k_lo, a.n_steps) == (b.h, b.k_lo, b.n_steps) and all(
        np.array_equal(getattr(a, c), getattr(b, c)) for c in _COLUMNS
    )


def path_events(sample, p: int) -> dict:
    """The event columns of path ``p``."""
    sel = sample.event_path == p
    return {c: getattr(sample, c)[sel] for c in _COLUMNS[2:]}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_rejects_asymmetric_covariance():
    spec = LevyProcessSpec(dim=2, wiener=WienerSpec(2, np.array([[1.0, 0.5], [0.0, 1.0]])))
    with pytest.raises(NoiseSpecError, match="symmetric"):
        validate_spec(spec)


def test_validate_rejects_indefinite_covariance():
    spec = LevyProcessSpec(dim=2, wiener=WienerSpec(2, np.array([[1.0, 0.0], [0.0, -0.5]])))
    with pytest.raises(NoiseSpecError, match="semidefinite"):
        validate_spec(spec)


def test_validate_rejects_region_mismatch():
    spec = LevyProcessSpec(
        dim=1, jumps=(JumpComponent(1.0, "small", uniform_interval_mark(0.5, 1.5)),)
    )
    with pytest.raises(NoiseSpecError, match="small"):
        validate_spec(spec)
    spec = LevyProcessSpec(dim=1, jumps=(JumpComponent(1.0, "large", point_mark([0.5])),))
    with pytest.raises(NoiseSpecError, match="large"):
        validate_spec(spec)


def test_validate_rejects_bad_rate_and_dim():
    with pytest.raises(NoiseSpecError, match="rate"):
        validate_spec(
            LevyProcessSpec(dim=1, jumps=(JumpComponent(0.0, "small", point_mark([0.1])),))
        )
    with pytest.raises(NoiseSpecError, match="dimension"):
        validate_spec(
            LevyProcessSpec(dim=2, jumps=(JumpComponent(1.0, "small", point_mark([0.1])),))
        )


def test_window_must_be_grid_aligned_and_contain_zero():
    spec = make_spec(with_jumps=False)
    with pytest.raises(NoiseSpecError, match="multiple"):
        sample_noise(spec, (-1.0005, 1.0), 0.01, 1, seed=0)
    with pytest.raises(NoiseSpecError, match="contain 0"):
        sample_noise(spec, (0.5, 1.0), 0.01, 1, seed=0)


# ---------------------------------------------------------------------------
# determinism and regeneration
# ---------------------------------------------------------------------------


def test_chunked_sampling_matches_monolithic():
    spec = make_spec()
    whole = sample_noise(spec, (-1.0, 2.0), 0.01, 6, seed=123)
    first = sample_noise(spec, (-1.0, 2.0), 0.01, 2, seed=123, path_offset=0)
    rest = sample_noise(spec, (-1.0, 2.0), 0.01, 4, seed=123, path_offset=2)
    np.testing.assert_array_equal(whole.dW, np.concatenate([first.dW, rest.dW]))
    for p in range(6):
        part, q = (first, p) if p < 2 else (rest, p - 2)
        mine, theirs = path_events(whole, p), path_events(part, q)
        assert len(mine["event_step"]) > 0
        for c in mine:
            np.testing.assert_array_equal(mine[c], theirs[c])


def test_events_are_ordered_by_path_then_time():
    sample = sample_noise(make_spec(dim=2), (-1.0, 2.0), 0.01, 5, seed=4)
    order = np.lexsort((sample.event_times, sample.event_path))
    np.testing.assert_array_equal(order, np.arange(len(order)))


def test_stream_layout_is_pinned():
    """A sha256 of dW and the event columns (path, step, region, marks)
    of a small sample, taken from the per-path sampler these arrays
    replaced: correlated 2-d Wiener part, small annulus and large point
    jumps on both half lines, paths addressed from offset 3.  Any change
    to the counter-based stream layout changes it."""
    spec = LevyProcessSpec(
        dim=2,
        wiener=WienerSpec(2, np.array([[1.0, 0.3], [0.3, 0.5]])),
        jumps=(
            JumpComponent(4.0, "small", uniform_annulus_mark(0.1, 0.6, dim=2)),
            JumpComponent(1.5, "large", point_mark([1.2, -0.9])),
        ),
    )
    sample = sample_noise(spec, (-1.0, 1.5), 1.0 / 16, 4, seed=2024, path_offset=3)
    assert sample.dW.shape == (4, 40, 2)
    assert np.array_equal(np.bincount(sample.event_region), [45, 17])
    digest = hashlib.sha256()
    for name, dtype in (
        ("dW", np.float64),
        ("event_path", np.int64),
        ("event_step", np.int64),
        ("event_region", np.int64),
        ("event_marks", np.float64),
    ):
        digest.update(np.ascontiguousarray(getattr(sample, name), dtype=dtype).tobytes())
    assert digest.hexdigest() == (
        "10c230d535387c9657b59fae2edf714c058939d499de752380a28a3ccdfa1f6f"
    )


def test_different_paths_and_seeds_differ():
    spec = make_spec()
    ab = sample_noise(spec, (-1.0, 1.0), 0.01, 2, seed=5)
    assert not np.array_equal(ab.dW[0], ab.dW[1])
    c = sample_noise(spec, (-1.0, 1.0), 0.01, 1, seed=6)
    assert not np.array_equal(ab.dW[0], c.dW[0])


# ---------------------------------------------------------------------------
# shifting
# ---------------------------------------------------------------------------


def test_shift_zero_is_identity():
    r = sample_noise(make_spec(), (-1.0, 2.0), 0.01, 1, seed=3)
    assert same_sample(r, r.shifted(0.0))


@given(m=st.integers(min_value=-150, max_value=150))
@settings(max_examples=30, deadline=None)
def test_shift_involution(m):
    r = sample_noise(make_spec(), (-2.0, 2.0), 0.01, 1, seed=11)
    s = m * 0.01
    assert same_sample(r, r.shifted(s).shifted(-s))


def test_shift_rebases_grid_and_events():
    r = sample_noise(make_spec(), (-2.0, 3.0), 0.01, 1, seed=8)
    s = 1.0
    sh = r.shifted(s)
    assert sh.grid[0] == pytest.approx(-3.0)
    assert sh.grid[-1] == pytest.approx(2.0)
    assert np.array_equal(sh.dW, r.dW)
    assert np.allclose(sh.event_times, r.event_times - s)
    assert np.array_equal(sh.event_step, r.event_step)


def test_shift_crops_to_window_on_integer_steps():
    r = sample_noise(make_spec(), (-2.0, 3.0), 0.25, 3, seed=8)
    sh = r.shifted(1.0, window=(-2.0, 1.0))
    assert (sh.k_lo, sh.n_steps) == (-8, 12)
    np.testing.assert_array_equal(sh.dW, r.dW[:, 4:16])
    keep = (r.event_step >= 4) & (r.event_step < 16)
    assert 0 < keep.sum() < len(keep)
    np.testing.assert_array_equal(sh.event_step, r.event_step[keep] - 4)
    np.testing.assert_array_equal(sh.event_path, r.event_path[keep])
    np.testing.assert_array_equal(sh.event_marks, r.event_marks[keep])
    grid = sh.grid
    assert np.all(grid[sh.event_step] <= sh.event_times)
    assert np.all(sh.event_times < grid[sh.event_step + 1])


def test_shift_rejects_off_grid_and_escaping_window():
    r = sample_noise(make_spec(), (-1.0, 1.0), 0.01, 1, seed=8)
    with pytest.raises(NoiseShiftError, match="multiple"):
        r.shifted(0.005)
    with pytest.raises(NoiseShiftError, match="not contained"):
        r.shifted(0.5, window=(-1.0, 1.0))


def test_shifted_brownian_increments_same_law():
    # KS two-sample test between fresh increments and shifted-view
    # increments of an independent path, 1% level
    spec = LevyProcessSpec(dim=1, wiener=WienerSpec(1, np.eye(1)))
    h = 1e-3
    a = sample_noise(spec, (-1.0, 9.0), h, 1, seed=21)
    b = sample_noise(spec, (-5.0, 5.0), h, 1, seed=22)
    bs = b.shifted(-4.0, window=(-1.0, 9.0))
    x = np.sort(a.dW[0, :, 0])
    y = np.sort(bs.dW[0, :, 0])
    n, m = len(x), len(y)
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / n
    cdf_y = np.searchsorted(y, grid, side="right") / m
    ks = np.abs(cdf_x - cdf_y).max()
    assert ks < 1.628 * np.sqrt((n + m) / (n * m))


# ---------------------------------------------------------------------------
# statistics of sampled paths
# ---------------------------------------------------------------------------


def test_wiener_increment_covariance():
    q = np.array([[1.0, 0.3], [0.3, 0.5]])
    spec = LevyProcessSpec(dim=2, wiener=WienerSpec(2, q))
    h = 0.01
    rs = sample_noise(spec, (-1.0, 1.0), h, 50, seed=99)
    incs = rs.dW.reshape(-1, 2)
    emp = incs.T @ incs / len(incs)
    assert np.allclose(emp, q * h, atol=4 * h / np.sqrt(len(incs)))


def test_two_sided_halves_independent():
    spec = LevyProcessSpec(dim=1, wiener=WienerSpec(1, np.eye(1)))
    rs = sample_noise(spec, (-1.0, 1.0), 0.01, 4000, seed=17)
    neg = rs.dW[:, :100, 0].sum(axis=1)
    pos = rs.dW[:, 100:, 0].sum(axis=1)
    rho = np.corrcoef(neg, pos)[0, 1]
    assert abs(rho) < 4 / np.sqrt(rs.n_paths)


def test_poisson_counts_both_halves():
    spec = LevyProcessSpec(
        dim=1, jumps=(JumpComponent(3.0, "small", uniform_interval_mark(0.1, 0.6)),)
    )
    rs = sample_noise(spec, (-2.0, 4.0), 0.01, 2000, seed=31)
    neg = rs.event_times < 0
    neg_counts = np.bincount(rs.event_path[neg], minlength=rs.n_paths)
    pos_counts = np.bincount(rs.event_path[~neg], minlength=rs.n_paths)
    for counts, lam in ((neg_counts, 6.0), (pos_counts, 12.0)):
        se = np.sqrt(lam / rs.n_paths)
        assert abs(counts.mean() - lam) < 4 * se
        assert abs(counts.var() / lam - 1.0) < 0.2


def test_jump_times_uniform_given_count():
    spec = LevyProcessSpec(
        dim=1, jumps=(JumpComponent(5.0, "small", point_mark([0.3])),)
    )
    rs = sample_noise(spec, (0.0, 2.0), 0.01, 500, seed=41)
    times = rs.event_times
    # mean of U(0, 2) is 1, sd is 2/sqrt(12)
    assert abs(times.mean() - 1.0) < 4 * (2 / np.sqrt(12)) / np.sqrt(len(times))
    assert times.min() >= 0.0 and times.max() < 2.0


def test_mark_sampler_moments_match_oracles():
    gen = np.random.default_rng(7)
    u = uniform_interval_mark(0.2, 0.8)
    draws = u.draw(gen, 20000)[:, 0]
    assert abs(draws.mean() - 0.5) < 4 * draws.std() / np.sqrt(len(draws))
    assert abs((draws**2).mean() - 0.28) < 0.01

    ann = uniform_annulus_mark(0.5, 0.9, dim=2)
    d2 = ann.draw(gen, 20000)
    assert np.linalg.norm(d2.mean(axis=0)) < 0.02
    assert abs((d2**2).sum(axis=1).mean() - 0.5033333333) < 0.01


def test_quadrature_nodes_integrate_second_moment():
    u = uniform_interval_mark(0.2, 0.8)
    pts, wts = u.nodes()
    assert np.sum(wts) == pytest.approx(1.0)
    assert np.sum(wts * pts[:, 0] ** 2) == pytest.approx(0.28)

    ann = uniform_annulus_mark(0.5, 0.9, dim=2)
    pts, wts = ann.nodes()
    assert np.sum(wts) == pytest.approx(1.0)
    assert np.sum(wts * (pts**2).sum(axis=1)) == pytest.approx(0.604 / 1.2)
    assert np.allclose(np.sum(wts[:, None] * pts, axis=0), 0.0, atol=1e-15)


@given(
    a=st.floats(min_value=-0.9, max_value=0.5),
    width=st.floats(min_value=0.01, max_value=0.4),
)
@settings(max_examples=25, deadline=None)
def test_draws_respect_norm_bounds(a, width):
    sampler = uniform_interval_mark(a, a + width)
    rmin, rmax = sampler.norm_bounds()
    gen = np.random.default_rng(2)
    norms = np.abs(sampler.draw(gen, 200)[:, 0])
    assert norms.max() <= rmax + 1e-12
    assert norms.min() >= rmin - 1e-12


def test_event_steps_bin_correctly():
    r = sample_noise(make_spec(), (-1.0, 1.0), 0.25, 1, seed=55)
    grid = r.grid
    assert len(r.event_step) > 0
    for k, tau in zip(r.event_step, r.event_times):
        assert grid[k] <= tau < grid[k + 1]
