"""Noise module tests.

Statistical oracles used here and fixed ahead of the assertions:

- uniform marks on [a, b]: E[x] = (a+b)/2, E[x^2] = (b^3 - a^3)/(3(b-a));
  for [0.2, 0.8] that is 0.5 and 0.28.
- annulus radii uniform on [r0, r1]: E[|x|^2] = (r1^3 - r0^3)/(3(r1-r0));
  for [0.5, 0.9] in any dimension that is 0.60333.../1.2 = 0.5033...
  their direction is isotropic, so E[x x^T] = E[|x|^2]/dim * I.
- Poisson counts over a window of length T have mean and variance rate*T.
- two-sample KS critical value at the 1% level: 1.628 * sqrt((n+m)/(n*m)).

All randomized checks run on fixed seeds.
"""

import hashlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _grid import steps, window_steps
from _lipschitz_oracles import second_moment
from _noise_oracles import NoiseShiftError, shifted, stream
import levyap.noise as noise_module
from levyap.config import (
    ConfigError,
    JumpConfig,
    LevyConfig,
    MarkConfig,
    build_spec,
    grid_steps,
    preset_config,
    validate_config,
)
from levyap.noise import (
    JumpComponent,
    LevyProcessSpec,
    NoiseDraw,
    NoiseSpecError,
    PointMark,
    UniformAnnulusMark,
    UniformIntervalMark,
    _KeyedStream,
    _mix,
    _stream_keys,
    sample_noise,
    validate_spec,
)


def make_spec(dim=1, with_jumps=True):
    jumps = ()
    if with_jumps:
        jumps = (
            JumpComponent(2.0, UniformIntervalMark(0.2, 0.8)),
            JumpComponent(0.5, PointMark((1.5,) + (0.0,) * (dim - 1))),
        )
        if dim > 1:
            jumps = (
                JumpComponent(2.0, UniformAnnulusMark(0.2, 0.8, dim)),
                JumpComponent(0.5, PointMark((1.5,) + (0.0,) * (dim - 1))),
            )
    return LevyProcessSpec(dim=dim, covariance=np.eye(dim), jumps=jumps)


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
    spec = LevyProcessSpec(dim=2, covariance=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NoiseSpecError, match="symmetric"):
        validate_spec(spec)


def test_validate_rejects_indefinite_covariance():
    spec = LevyProcessSpec(dim=2, covariance=np.array([[1.0, 0.0], [0.0, -0.5]]))
    with pytest.raises(NoiseSpecError, match="semidefinite"):
        validate_spec(spec)


@pytest.mark.parametrize(
    "diagonal",
    [(1, 0.5), (1, -0.5), (0.0, -1e-13), (1, -2e-12), (2e12, -1.9), (2e12, -2.1),
     (float("nan"), 1.0), (float("inf"), 1.0), (1.0,), (1.0, 2.0, 3.0), (1.7e308, 1.0)],
)
def test_diagonal_covariance_rows_checked_like_arrays(diagonal, monkeypatch):
    """A diagonal covariance given as rows is checked on its diagonal, its
    eigenvalues, and runs no numpy code: it passes, or fails with the same
    message, exactly where the same matrix as an array does under the
    symmetric test and ``eigvalsh``."""
    n = len(diagonal)
    rows = tuple(tuple(v if i == j else 0 for j in range(n)) for i, v in enumerate(diagonal))

    def outcome(q):
        try:
            validate_spec(LevyProcessSpec(dim=2, covariance=q))
        except NoiseSpecError as exc:
            return str(exc)
        return None

    with monkeypatch.context() as patch:
        patch.setattr(noise_module, "np", None)
        message = outcome(rows)
    assert message == outcome(np.array(rows, dtype=float))


def test_validate_rejects_region_mismatch():
    """A component's region follows from its marks, split at norm 1: all
    below is small, all at 1 or above is large, and marks whose norms
    reach both sides of 1 fit neither region, which names the marks."""
    for marks, region in (
        (UniformIntervalMark(-0.5, 0.99), "small"),
        (PointMark((0.0, -1.0)), "large"),
        (UniformAnnulusMark(1.0, 2.0, 2), "large"),
    ):
        assert JumpComponent(1.0, marks).region == region
    for marks in (
        UniformIntervalMark(0.5, 1.5),
        UniformIntervalMark(-1.0, 0.5),
        UniformAnnulusMark(0.5, 1.0, 1),
    ):
        spec = LevyProcessSpec(dim=1, jumps=(JumpComponent(1.0, marks),))
        with pytest.raises(NoiseSpecError, match=r"^jumps\[0\]\.marks: mark norms .* neither"):
            validate_spec(spec)


def test_validate_rejects_bad_rate_and_dim():
    with pytest.raises(NoiseSpecError, match="rate"):
        validate_spec(
            LevyProcessSpec(dim=1, jumps=(JumpComponent(0.0, PointMark((0.1,))),))
        )
    with pytest.raises(NoiseSpecError, match="dimension"):
        validate_spec(
            LevyProcessSpec(dim=2, jumps=(JumpComponent(1.0, PointMark((0.1,))),))
        )


@pytest.mark.parametrize(
    "x, h, steps",
    [
        (0.5, 1 / 32, 16),
        (-2.0, 1 / 32, -64),
        (0.0, 0.1, 0),
        # floats are read by their shortest repr, 3/10 and 1/10, although
        # 0.3 / 0.1 is 2.9999999999999996
        (0.3, 0.1, 3),
        (-1.4999999988, 1 / 32, None),  # 1.2e-9 off step -48
        (0.5000000012, 1 / 32, None),
        (1 / 3, 1 / 32, None),
        pytest.param(Fraction(1, 3), Fraction(1, 96), 32, id="1/3-1/96-32"),
        pytest.param(1.0, 1e-310, 10**310, id="1.0-1e-310-10**310"),  # x / h overflows a float
    ],
)
def test_grid_steps(x, h, steps):
    if steps is None:
        with pytest.raises(ConfigError, match=r"^x = .* is not a multiple of the step h = "):
            grid_steps(x, h, "x")
    else:
        assert grid_steps(x, h, "x") == steps


# ---------------------------------------------------------------------------
# determinism and regeneration
# ---------------------------------------------------------------------------


def test_chunked_sampling_matches_monolithic():
    spec = make_spec()
    whole = sample_noise(spec, *window_steps(-1.0, 2.0, 0.01), 0.01, 6, seed=123)
    first = sample_noise(spec, *window_steps(-1.0, 2.0, 0.01), 0.01, 2, seed=123, path_offset=0)
    rest = sample_noise(spec, *window_steps(-1.0, 2.0, 0.01), 0.01, 4, seed=123, path_offset=2)
    np.testing.assert_array_equal(whole.dW, np.concatenate([first.dW, rest.dW]))
    for p in range(6):
        part, q = (first, p) if p < 2 else (rest, p - 2)
        mine, theirs = path_events(whole, p), path_events(part, q)
        assert len(mine["event_step"]) > 0
        for c in mine:
            np.testing.assert_array_equal(mine[c], theirs[c])


def test_events_are_ordered_by_path_then_time():
    sample = sample_noise(make_spec(dim=2), *window_steps(-1.0, 2.0, 0.01), 0.01, 5, seed=4)
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
        covariance=np.array([[1.0, 0.3], [0.3, 0.5]]),
        jumps=(
            JumpComponent(4.0, UniformAnnulusMark(0.1, 0.6, 2)),
            JumpComponent(1.5, PointMark((1.2, -0.9))),
        ),
    )
    sample = sample_noise(
        spec, *window_steps(-1.0, 1.5, 1.0 / 16), 1.0 / 16, 4, seed=2024, path_offset=3
    )
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



@pytest.mark.parametrize("c", [0.3, -0.7, 1.0, 0.0, -0.0])
def test_one_dimensional_mixing_is_the_matmul(c):
    """A 1-d noise is mixed by one product and ``+= 0.0``: bit for bit the
    (..., 1) @ (1, 1) matmul of a wider noise, whose sum starts at +0.0,
    so a -0.0 product comes out +0.0.  Contiguous and strided operands,
    as the two half lines of the sampler pass them."""
    x = np.random.default_rng(5).standard_normal((3, 40, 1))
    x[0, :4, 0] = [-0.0, 0.0, -0.0, 5e-324]
    chol = np.array([[c]])
    for operand in (x, x[:, 3:30]):
        out = np.full_like(operand, np.nan)
        assert _mix(operand, chol, out) is out
        ref = np.matmul(operand, chol.T)
        assert out.tobytes() == ref.tobytes()
        assert not np.signbit(out[out == 0.0]).any()
    strided = np.full((3, 50, 1), np.nan)[:, 5:45]
    _mix(x, chol, strided)
    assert strided.tobytes() == np.matmul(x, chol.T).tobytes()


# ---------------------------------------------------------------------------
# stream keys, re-keyed streams and the threaded sampler
# ---------------------------------------------------------------------------


def seed_sequence_key(seed: int, key: tuple) -> np.ndarray:
    """The Philox key ``stream(seed, *key)`` opens with, from numpy."""
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)


@given(
    seed=st.one_of(
        st.sampled_from([0, 2**32 - 1, 2**32, 2**70 + 3]), st.integers(0, 2**100)
    ),
    key=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_stream_keys_match_seed_sequence(seed, key):
    """One address at a time and in bulk: every lane of a broadcast key
    array gets the key numpy's SeedSequence generates for it."""
    np.testing.assert_array_equal(_stream_keys(seed, *key), seed_sequence_key(seed, tuple(key)))
    paths = np.array([0, 1, key[0], 2**32 - 1])
    bulk = _stream_keys(seed, paths[:, None], [key[1], 0], *key[2:])
    for lane, path in enumerate(paths):
        for col, tag in enumerate((key[1], 0)):
            ref = seed_sequence_key(seed, (int(path), tag, *key[2:]))
            np.testing.assert_array_equal(bulk[lane, col], ref)


def test_stream_keys_reject_words_beyond_32_bits():
    with pytest.raises(NoiseSpecError, match=r"2\*\*32"):
        _stream_keys(1, 2**32, 0)
    with pytest.raises(NoiseSpecError, match=r"2\*\*32"):
        _stream_keys(1, np.array([3, -1]), 0)
    with pytest.raises(NoiseSpecError, match="path indices"):
        sample_noise(
            make_spec(), *window_steps(-0.5, 0.5, 0.25), 0.25, 2, seed=1, path_offset=2**32 - 1
        )


def test_rekeyed_stream_draws_equal_fresh_streams():
    """Streams opened back to back on one re-keyed generator draw what
    fresh ``stream`` generators draw: normals, Poisson counts, uniforms
    and the 1-d annulus sign draw ``integers(0, 2)``, which leaves a
    buffered 32-bit half that the next stream must not see."""

    def draws(gen, n):
        return [
            gen.integers(0, 2, size=n),
            gen.standard_normal(n),
            np.atleast_1d(gen.poisson(2.5)),
            gen.uniform(0.0, 3.0, size=n),
            gen.integers(0, 2, size=1),
        ]

    keyed = _KeyedStream()
    addresses = [(7, 0), (7, 2, 1), (8, 3, 0), (7, 0), (2**32 - 1, 1)]
    for n, key in enumerate(addresses, start=1):
        for seed in (0, 2**70 + 3):
            mine = draws(keyed.open(_stream_keys(seed, *key).tolist()), n)
            theirs = draws(stream(seed, *key), n)
            for a, b in zip(mine, theirs):
                np.testing.assert_array_equal(a, b)


def reference_sample(spec, window, h, n_paths, seed, path_offset=0):
    """The per-path sampler: every stream opened by ``stream`` and drawn,
    scaled and laid out path by path.  The columns it returns are the
    arrays ``sample_noise`` must reproduce bit for bit."""
    n_neg, n_pos = round(-window[0] / h), round(window[1] / h)
    chol = None
    if spec.covariance is not None:
        q = np.asarray(spec.covariance, dtype=float)
        eigs, vecs = np.linalg.eigh((q + q.T) / 2)
        chol = vecs * np.sqrt(np.clip(eigs, 0.0, None))
    dW = np.zeros((n_paths, n_neg + n_pos, spec.dim))
    events = []  # (path, time, component, mark)
    for j in range(n_paths):
        path = path_offset + j
        if chol is not None:
            if n_pos:
                z = stream(seed, path, 0).standard_normal((n_pos, spec.dim))
                dW[j, n_neg:] = np.sqrt(h) * z @ chol.T
            if n_neg:
                z = stream(seed, path, 1).standard_normal((n_neg, spec.dim))
                dW[j, :n_neg] = np.sqrt(h) * (z @ chol.T)[::-1]
        for ci, comp in enumerate(spec.jumps):
            for tag, length in ((2, n_pos * h), (3, n_neg * h)):
                if length:
                    gen = stream(seed, path, tag, ci)
                    count = int(gen.poisson(comp.rate * length))
                    times = np.sort(gen.uniform(0.0, length, size=count))
                    # the negative half line's times are mirrored, its
                    # marks kept in draw order
                    times = times if tag == 2 else -times[::-1]
                    marks = comp.marks.draw(gen, count)
                    events += [(j, t, ci, x) for t, x in zip(times, marks)]
    events.sort(key=lambda e: e[:3])
    return {
        "dW": dW,
        "event_path": np.array([e[0] for e in events], dtype=np.int64),
        "event_times": np.array([e[1] for e in events]),
        "event_marks": np.array([e[3] for e in events]).reshape(-1, spec.dim),
    }


def correlated_3d_spec():
    q = np.array([[1.0, 0.3, -0.2], [0.3, 0.5, 0.1], [-0.2, 0.1, 0.8]])
    return LevyProcessSpec(
        dim=3,
        covariance=q,
        jumps=(
            JumpComponent(4.0, UniformAnnulusMark(0.1, 0.6, 3)),
            JumpComponent(1.5, PointMark((1.2, -0.9, 0.3))),
        ),
    )


def annulus_1d_spec():
    return LevyProcessSpec(
        dim=1,
        covariance=np.array([[0.7]]),
        jumps=(
            JumpComponent(5.0, UniformAnnulusMark(0.1, 0.6, 1)),
            JumpComponent(2.0, UniformAnnulusMark(1.0, 1.5, 1)),
        ),
    )


@pytest.mark.parametrize(
    "spec, window",
    [
        (correlated_3d_spec(), (-1.0, 1.5)),
        (annulus_1d_spec(), (-1.0, 1.5)),
        (make_spec(), (0.0, 2.0)),  # no negative half line
        (make_spec(dim=2), (-2.0, 0.0)),  # no positive half line
    ],
)
def test_sampler_matches_per_path_reference_for_any_threads(spec, window, monkeypatch):
    """70 paths are three groups of ``_GROUP``, the last one partial.
    The sample is bitwise the per-path reference's, and so are the path
    ranges that 1, 2 or 3 threads draw at once, as the solver's workers
    draw their blocks, with frequent thread switches.  A ``NoiseDraw``
    draws nothing when it is made; each of its path ranges is one
    ``sample_noise`` call, bitwise the range the drawn sample gives as
    views, paths numbered from 0."""
    ref = reference_sample(spec, window, 1.0 / 16, 70, seed=2**40 + 9, path_offset=5)
    assert len(ref["event_path"]) > 70
    args = (spec, *window_steps(*window, 1.0 / 16), 1.0 / 16)
    sample = sample_noise(*args, 70, 2**40 + 9, 5)
    for name, want in ref.items():
        np.testing.assert_array_equal(getattr(sample, name), want)

    def draw(bounds):
        lo, hi = bounds
        return sample_noise(*args, hi - lo, 2**40 + 9, 5 + lo)

    ranges = ((0, 33), (33, 34), (34, 70))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 3):
            with ThreadPoolExecutor(threads) as pool:
                parts = list(pool.map(draw, ranges))
            np.testing.assert_array_equal(np.concatenate([p.dW for p in parts]), ref["dW"])
            offsets = np.repeat([lo for lo, _ in ranges], [len(p.event_path) for p in parts])
            np.testing.assert_array_equal(
                np.concatenate([p.event_path for p in parts]) + offsets, ref["event_path"]
            )
            for name in ("event_times", "event_marks"):
                np.testing.assert_array_equal(
                    np.concatenate([getattr(p, name) for p in parts]), ref[name]
                )
    finally:
        sys.setswitchinterval(interval)
    calls = []
    draw_noise = noise_module.sample_noise
    monkeypatch.setattr(
        noise_module, "sample_noise", lambda *a: calls.append(a) or draw_noise(*a)
    )
    lazy = NoiseDraw(*args, 75, 2**40 + 9)
    assert calls == [] and lazy.n_paths == 75
    for lo, hi in ((5, 75), (38, 40)):
        part, view = lazy.paths(lo, hi), sample.paths(lo - 5, hi - 5)
        assert same_sample(part, view)
        assert np.shares_memory(view.dW, sample.dW)
    assert len(calls) == 2
    assert same_sample(sample.paths(0, 70), sample)


@pytest.mark.parametrize("threads", [1, 2])
def test_sampler_temporaries_are_bounded(threads):
    """At 256 paths x 6144 steps, split among ``threads`` workers that
    draw their path ranges at once as the solver's workers draw their
    blocks, the sampler holds, on top of ``dW``, at most 2 MB: the keys,
    the events and, per worker, the reversal of one path's half line.
    Scaling a worker's whole share through a buffer would take several
    times that."""
    spec = LevyProcessSpec(
        dim=1,
        covariance=np.eye(1),
        jumps=(
            JumpComponent(1.5, UniformIntervalMark(-0.9, 0.9)),
            JumpComponent(1.0, UniformIntervalMark(1.0, 1.5)),
        ),
    )
    args = (spec, *window_steps(-2.0, 4.0, 1.0 / 1024), 1.0 / 1024)
    share = 256 // threads

    def draw(lo):
        return sample_noise(*args, share, 41, lo)

    tracemalloc.start()
    try:
        with ThreadPoolExecutor(threads) as pool:
            parts = list(pool.map(draw, range(0, 256, share)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [p.dW.shape for p in parts] == [(share, 6144, 1)] * threads
    assert peak <= sum(p.dW.nbytes for p in parts) + 2 * 2**20


def test_block_draw_holds_its_increments_and_little_more():
    """A 64-path block of example41 at h = 1/1024, the Picard workers'
    draw, scales its Wiener increments in place in ``dW``: its traced
    peak stays below ``dW`` plus one group-sized scaling buffer
    (``_GROUP`` paths of the longer half line), which scaling through
    such a buffer alone would reach."""
    cfg = preset_config("example41")
    cfg = cfg._replace(numerics=cfg.numerics._replace(h=Fraction(1, 1024), n_paths=1024))
    run = validate_config(cfg)
    draw = NoiseDraw(run.spec, run.k_lo, run.n, 1.0 / 1024, 1024, cfg.seed)
    draw.paths(0, 64)  # numpy's first calls set up caches of their own
    tracemalloc.start()
    try:
        block = draw.paths(64, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    longer = max(-run.k_lo, run.k_lo + run.n)
    assert block.dW.shape == (64, 6144, 1) and longer == 4096
    assert peak < block.dW.nbytes + noise_module._GROUP * longer * block.dW.itemsize


def test_different_paths_and_seeds_differ():
    spec = make_spec()
    ab = sample_noise(spec, *window_steps(-1.0, 1.0, 0.01), 0.01, 2, seed=5)
    assert not np.array_equal(ab.dW[0], ab.dW[1])
    c = sample_noise(spec, *window_steps(-1.0, 1.0, 0.01), 0.01, 1, seed=6)
    assert not np.array_equal(ab.dW[0], c.dW[0])


# ---------------------------------------------------------------------------
# shifting
# ---------------------------------------------------------------------------


def test_shift_zero_is_identity():
    r = sample_noise(make_spec(), *window_steps(-1.0, 2.0, 0.01), 0.01, 1, seed=3)
    assert same_sample(r, shifted(r, steps(0.0, r.h)))


@given(m=st.integers(min_value=-150, max_value=150))
@settings(max_examples=30, deadline=None)
def test_shift_involution(m):
    r = sample_noise(make_spec(), *window_steps(-2.0, 2.0, 0.01), 0.01, 1, seed=11)
    assert same_sample(r, shifted(shifted(r, m), -m))


def test_shift_rebases_grid_and_events():
    r = sample_noise(make_spec(), *window_steps(-2.0, 3.0, 0.01), 0.01, 1, seed=8)
    s = 1.0
    sh = shifted(r, steps(s, r.h))
    assert sh.grid[0] == pytest.approx(-3.0)
    assert sh.grid[-1] == pytest.approx(2.0)
    assert np.array_equal(sh.dW, r.dW)
    assert np.allclose(sh.event_times, r.event_times - s)
    assert np.array_equal(sh.event_step, r.event_step)


def test_shift_crops_to_window_on_integer_steps():
    r = sample_noise(make_spec(), *window_steps(-2.0, 3.0, 0.25), 0.25, 3, seed=8)
    sh = shifted(r, steps(1.0, r.h), window=window_steps(-2.0, 1.0, r.h))
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
    r = sample_noise(make_spec(), *window_steps(-1.0, 1.0, 0.01), 0.01, 1, seed=8)
    with pytest.raises(NoiseShiftError, match="multiple"):
        shifted(r, 0.005 / r.h)
    with pytest.raises(NoiseShiftError, match="not contained"):
        shifted(r, steps(0.5, r.h), window=window_steps(-1.0, 1.0, r.h))


def test_shifted_brownian_increments_same_law():
    # KS two-sample test between fresh increments and shifted-view
    # increments of an independent path, 1% level
    spec = LevyProcessSpec(dim=1, covariance=np.eye(1))
    h = 1e-3
    a = sample_noise(spec, *window_steps(-1.0, 9.0, h), h, 1, seed=21)
    b = sample_noise(spec, *window_steps(-5.0, 5.0, h), h, 1, seed=22)
    bs = shifted(b, steps(-4.0, h), window=window_steps(-1.0, 9.0, h))
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
    spec = LevyProcessSpec(dim=2, covariance=q)
    h = 0.01
    rs = sample_noise(spec, *window_steps(-1.0, 1.0, h), h, 50, seed=99)
    incs = rs.dW.reshape(-1, 2)
    emp = incs.T @ incs / len(incs)
    assert np.allclose(emp, q * h, atol=4 * h / np.sqrt(len(incs)))


def test_two_sided_halves_independent():
    spec = LevyProcessSpec(dim=1, covariance=np.eye(1))
    rs = sample_noise(spec, *window_steps(-1.0, 1.0, 0.01), 0.01, 4000, seed=17)
    neg = rs.dW[:, :100, 0].sum(axis=1)
    pos = rs.dW[:, 100:, 0].sum(axis=1)
    rho = np.corrcoef(neg, pos)[0, 1]
    assert abs(rho) < 4 / np.sqrt(rs.n_paths)


def test_poisson_counts_both_halves():
    spec = LevyProcessSpec(
        dim=1, jumps=(JumpComponent(3.0, UniformIntervalMark(0.1, 0.6)),)
    )
    rs = sample_noise(spec, *window_steps(-2.0, 4.0, 0.01), 0.01, 2000, seed=31)
    neg = rs.event_times < 0
    neg_counts = np.bincount(rs.event_path[neg], minlength=rs.n_paths)
    pos_counts = np.bincount(rs.event_path[~neg], minlength=rs.n_paths)
    for counts, lam in ((neg_counts, 6.0), (pos_counts, 12.0)):
        se = np.sqrt(lam / rs.n_paths)
        assert abs(counts.mean() - lam) < 4 * se
        assert abs(counts.var() / lam - 1.0) < 0.2


def test_jump_times_uniform_given_count():
    spec = LevyProcessSpec(
        dim=1, jumps=(JumpComponent(5.0, PointMark((0.3,))),)
    )
    rs = sample_noise(spec, *window_steps(0.0, 2.0, 0.01), 0.01, 500, seed=41)
    times = rs.event_times
    # mean of U(0, 2) is 1, sd is 2/sqrt(12)
    assert abs(times.mean() - 1.0) < 4 * (2 / np.sqrt(12)) / np.sqrt(len(times))
    assert times.min() >= 0.0 and times.max() < 2.0


def test_mark_sampler_moments_match_oracles():
    gen = np.random.default_rng(7)
    u = UniformIntervalMark(0.2, 0.8)
    draws = u.draw(gen, 20000)[:, 0]
    assert abs(draws.mean() - 0.5) < 4 * draws.std() / np.sqrt(len(draws))
    assert abs((draws**2).mean() - 0.28) < 0.01

    ann = UniformAnnulusMark(0.5, 0.9, 2)
    d2 = ann.draw(gen, 20000)
    assert np.linalg.norm(d2.mean(axis=0)) < 0.02
    assert abs((d2**2).sum(axis=1).mean() - 0.5033333333) < 0.01


def test_mark_moments_are_python_floats():
    """``levyap check`` runs no numpy code, so the exact condition check
    can read a mark law's mean and norm bounds only as Python floats; the
    Lipschitz oracle's closed-form second moment is one too.  The laws
    are built from config numbers (ints and Fractions), as a run builds
    them."""
    marks = [
        (2, MarkConfig(kind="point", x=(Fraction(3, 10), -1))),
        (1, MarkConfig(kind="uniform_interval", a=Fraction(-3, 10), b=1)),
        (3, MarkConfig(kind="uniform_annulus", r0=Fraction(1, 2), r1=1)),
    ]
    for dim, mark in marks:
        jump = JumpConfig(rate=1, marks=mark)
        (comp,) = build_spec(LevyConfig(dim=dim, jumps=(jump,))).jumps
        law = comp.marks
        values = [*law.mean(), *law.norm_bounds(), *(v for row in second_moment(law) for v in row)]
        assert len(values) == dim + 2 + dim * dim
        assert all(type(v) is float for v in values), (mark.kind, values)


def test_second_moment_closed_forms():
    ((m,),) = second_moment(UniformIntervalMark(0.2, 0.8))
    assert m == pytest.approx(0.28)
    assert second_moment(PointMark((1.5, -2.0))) == ((2.25, -3.0), (-3.0, 4.0))
    for dim in (1, 2, 3, 8):
        m = np.array(second_moment(UniformAnnulusMark(0.5, 0.9, dim)))
        assert m.shape == (dim, dim)
        assert np.trace(m) == pytest.approx(0.604 / 1.2)
        assert np.array_equal(m, np.diag(np.diag(m)))
        assert np.all(np.diag(m) == m[0, 0])


@pytest.mark.parametrize(
    "marks",
    [
        PointMark((0.7,)),
        PointMark((1.5, 0.0, -0.4)),
        UniformIntervalMark(-0.3, 0.8),
        UniformAnnulusMark(0.5, 0.9, 1),
        UniformAnnulusMark(0.5, 0.9, 2),
        UniformAnnulusMark(0.2, 0.8, 3),
        UniformAnnulusMark(0.5, 0.9, 8),
    ],
    ids=["point1", "point3", "interval", "annulus1", "annulus2", "annulus3", "annulus8"],
)
def test_second_moment_matches_monte_carlo(marks):
    """The closed form against the mean of x x^T over 200k draws.  The
    random families have mark norms at most 0.9, so each entry of x x^T
    lies in [-0.81, 0.81] and its mean has a standard error below
    0.81 / sqrt(200000) = 0.0018; point marks are exact."""
    x = marks.draw(np.random.default_rng(11), 200_000)
    empirical = x.T @ x / len(x)
    assert np.abs(empirical - np.array(second_moment(marks))).max() < 0.01


@given(
    a=st.floats(min_value=-0.9, max_value=0.5),
    width=st.floats(min_value=0.01, max_value=0.4),
)
@settings(max_examples=25, deadline=None)
def test_draws_respect_norm_bounds(a, width):
    sampler = UniformIntervalMark(a, a + width)
    rmin, rmax = sampler.norm_bounds()
    gen = np.random.default_rng(2)
    norms = np.abs(sampler.draw(gen, 200)[:, 0])
    assert norms.max() <= rmax + 1e-12
    assert norms.min() >= rmin - 1e-12


def test_event_steps_bin_correctly():
    r = sample_noise(make_spec(), *window_steps(-1.0, 1.0, 0.25), 0.25, 1, seed=55)
    grid = r.grid
    assert len(r.event_step) > 0
    for k, tau in zip(r.event_step, r.event_times):
        assert grid[k] <= tau < grid[k + 1]
