"""Tests for empirical laws, the bounded-Lipschitz distance and the
almost-periodicity scan."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from _grid import steps
from _lp_oracles import enumerate_bl_value, rational_bl_value
import levyap.apdist
from levyap.solver import PathEnsemble
from levyap.apdist import (
    APScanReport,
    EmpiricalLaw,
    EmpiricalLawError,
    _law_paths,
    _signed_support,
    _transport_bl,
    ap_distribution_scan,
    bl_distance,
)


def _FakeEnsemble(grid, values):
    """An ensemble of ``values`` on ``grid``, which starts at 0."""
    d = values.shape[2]
    return PathEnsemble(h=float(grid[1] - grid[0]), k_lo=0, values=values, dim=d, coords=range(d))


def _on_grid(ens, times):
    """Float times as whole steps of the ensemble's grid, which starts at 0."""
    return [steps(t, ens.h) for t in times]


def _random_pair(gen, max_pts=12, dim=None):
    d = dim or int(gen.integers(1, 3))
    a = gen.normal(size=(int(gen.integers(1, max_pts)), d))
    b = gen.normal(size=(int(gen.integers(1, max_pts)), d)) + gen.normal(size=d) * 0.5
    return EmpiricalLaw.from_samples(a), EmpiricalLaw.from_samples(b)


# ---------------------------------------------------------------------------
# empirical laws
# ---------------------------------------------------------------------------


def test_law_validation_rejects_bad_inputs():
    with pytest.raises(EmpiricalLawError, match="nonempty"):
        EmpiricalLaw(np.zeros((0, 1)))
    with pytest.raises(EmpiricalLawError, match="nonempty"):
        EmpiricalLaw(np.array([1.0, 2.0, 3.0]))  # rows are points: (n, d)
    with pytest.raises(EmpiricalLawError, match="finite"):
        EmpiricalLaw(np.array([[np.nan]]))


def test_subsample_identity_below_cap():
    # a scan's laws take every path when law_support does not cut them
    for n_support in (None, 5, 10):
        np.testing.assert_array_equal(_law_paths(5, n_support, seed=3), np.arange(5))


def test_subsample_size_and_determinism():
    paths = _law_paths(40, 15, seed=3)
    assert len(paths) == 15
    assert paths.tobytes() == _law_paths(40, 15, seed=3).tobytes()
    assert paths.tobytes() != _law_paths(40, 15, seed=4).tobytes()
    # the draw passes the uniform weights explicitly: numpy draws other
    # indices without them, and the shipped apscan reports rest on these
    expected = np.random.default_rng(3).choice(40, size=15, replace=True, p=np.full(40, 1 / 40))
    np.testing.assert_array_equal(paths, expected)


def test_signed_support_cancels_shared_atoms():
    mu = EmpiricalLaw.from_samples(np.array([[0.0], [1.0]]))
    nu = EmpiricalLaw.from_samples(np.array([[0.0], [2.0]]))
    pts, delta = _signed_support(mu, nu)
    assert pts.shape == (2, 1)
    np.testing.assert_allclose(sorted(pts[:, 0]), [1.0, 2.0])
    assert abs(delta.sum()) < 1e-15


def test_signed_support_counts_repeated_rows():
    # a row that a law of n rows repeats k times is an atom of mass k/n
    mu = EmpiricalLaw(np.array([[0.0]] * 3 + [[1.5]] * 7))
    nu = EmpiricalLaw(np.array([[1.5], [2.5]]))
    pts, delta = _signed_support(mu, nu)
    np.testing.assert_array_equal(pts[:, 0], [0.0, 1.5, 2.5])
    np.testing.assert_allclose(delta, [0.3, 0.2, -0.5], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# the distance itself
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=50.0))
def test_two_point_closed_form(d):
    # one atom each at distance d: beta = 2d / (2 + d)
    mu = EmpiricalLaw.from_samples(np.array([[0.0]]))
    nu = EmpiricalLaw.from_samples(np.array([[d]]))
    assert abs(bl_distance(mu, nu) - 2 * d / (2 + d)) < 1e-12


def test_identical_laws_give_zero():
    gen = np.random.default_rng(1)
    law = EmpiricalLaw.from_samples(gen.normal(size=(20, 2)))
    assert bl_distance(law, law) == 0.0


def test_symmetry_is_exact():
    gen = np.random.default_rng(2)
    for _ in range(10):
        mu, nu = _random_pair(gen)
        assert bl_distance(mu, nu) == bl_distance(nu, mu)


def test_bounds():
    gen = np.random.default_rng(3)
    for _ in range(10):
        mu, nu = _random_pair(gen)
        v = bl_distance(mu, nu)
        assert 0.0 <= v <= 2.0
    far = bl_distance(
        EmpiricalLaw.from_samples(np.zeros((2, 1))),
        EmpiricalLaw.from_samples(np.full((3, 1), 1e6)),
    )
    assert far < 2.0 and far > 2.0 - 1e-5


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_triangle_inequality(seed):
    gen = np.random.default_rng(seed)
    d = int(gen.integers(1, 3))
    laws = [
        EmpiricalLaw.from_samples(
            gen.normal(size=(int(gen.integers(1, 8)), d)) + gen.normal(size=d)
        )
        for _ in range(3)
    ]
    ab = bl_distance(laws[0], laws[1])
    bc = bl_distance(laws[1], laws[2])
    ac = bl_distance(laws[0], laws[2])
    assert ac <= ab + bc + 1e-9


def test_merging_coincident_atoms_is_invariant():
    nu = EmpiricalLaw.from_samples(np.array([[2.0], [3.0]]))
    split = EmpiricalLaw(np.array([[0.0], [0.0], [1.0], [1.0]]))
    merged = EmpiricalLaw(np.array([[0.0], [1.0]]))
    assert abs(bl_distance(split, nu) - bl_distance(merged, nu)) < 1e-10


def test_matches_exact_rational_simplex():
    # supports up to six points, certified in exact arithmetic
    gen = np.random.default_rng(5)
    for _ in range(8):
        d = int(gen.integers(1, 3))
        mu = EmpiricalLaw.from_samples(gen.normal(size=(3, d)))
        nu = EmpiricalLaw.from_samples(gen.normal(size=(3, d)) + 0.5)
        pts, delta = _signed_support(mu, nu)
        assert len(pts) <= 6
        ours = bl_distance(mu, nu)
        exact = float(rational_bl_value(pts, delta))
        assert abs(ours - exact) < 1e-6
        assert abs(ours - exact) < 1e-10  # in practice far tighter


def test_matches_brute_force_enumeration():
    # every vertex of the original program, in exact arithmetic
    gen = np.random.default_rng(11)
    for _ in range(3):
        mu = EmpiricalLaw.from_samples(gen.normal(size=(2, 2)))
        nu = EmpiricalLaw.from_samples(gen.normal(size=(1, 2)) + 0.4)
        pts, delta = _signed_support(mu, nu)
        assert len(pts) <= 3
        ours = bl_distance(mu, nu)
        exact = float(enumerate_bl_value(pts, delta))
        assert abs(ours - exact) < 1e-6
        assert abs(ours - exact) < 1e-10


def _line_oracle_cases():
    """1-d laws for the exact oracles: ties within a law, atoms shared
    between the laws, repeated coincident atoms, one and two points, and
    total masses that differ by rounding."""
    col = lambda *v: np.array(v, dtype=float)[:, None]
    yield EmpiricalLaw.from_samples(col(0.0, 0.0, 1.0)), EmpiricalLaw.from_samples(col(0.5, 2.0))
    yield EmpiricalLaw.from_samples(col(0.0, 1.0, 3.0)), EmpiricalLaw.from_samples(
        col(1.0, 3.0, 4.0)
    )
    # masses (0.3, 0.7) at (0, 1.5) against (0.25, 0.5, 0.25) at (0, 1.5, 2.5)
    yield (
        EmpiricalLaw(col(*[0.0] * 3, *[1.5] * 7)),
        EmpiricalLaw(col(1.5, 0.0, 1.5, 2.5)),
    )
    # one point: ten rows of it carry 0.9999999999999999, one row 1
    yield EmpiricalLaw(col(0.7)), EmpiricalLaw(col(*[0.7] * 10))
    # two points, and the same with a rounded total mass
    yield EmpiricalLaw.from_samples(col(-0.3)), EmpiricalLaw.from_samples(col(0.9))
    yield EmpiricalLaw(col(*[0.0] * 9, 1.0)), EmpiricalLaw(col(2.0))
    gen = np.random.default_rng(6)
    for _ in range(4):
        mu = EmpiricalLaw.from_samples(np.round(gen.normal(size=(3, 1)), 1))
        nu = EmpiricalLaw.from_samples(np.round(gen.normal(size=(3, 1)), 1) + 0.3)
        yield mu, nu


def test_line_matches_exact_oracles():
    for mu, nu in _line_oracle_cases():
        pts, delta = _signed_support(mu, nu)
        assert pts.shape[1] == 1 and len(pts) <= 6
        ours = bl_distance(mu, nu)
        exact = float(rational_bl_value(pts, delta))
        assert abs(ours - exact) < 1e-10
        if len(pts) <= 3:
            assert abs(ours - float(enumerate_bl_value(pts, delta))) < 1e-10
        assert ours == bl_distance(nu, mu)


def test_line_single_point_gives_the_mass_difference():
    # two points are test_two_point_closed_form, which is on the line too
    # ten rows of one point carry 0.9999999999999999, one row 1
    mu = EmpiricalLaw(np.full((10, 1), 2.0))
    nu = EmpiricalLaw.from_samples(np.array([[2.0]]))
    value, wit = bl_distance(mu, nu, return_witness=True)
    pts, delta = _signed_support(mu, nu)
    assert len(pts) == 1 and delta[0] != 0.0
    assert value == abs(delta[0])
    assert float(delta @ wit["f"]) == value


def _cloud_pairs(gen, n, d):
    """Clouds of n points in dimension d: one pair close (a jittered
    copy), one pair independent."""
    a = gen.normal(size=(n, d))
    yield EmpiricalLaw.from_samples(a), EmpiricalLaw.from_samples(
        a + 0.01 * gen.normal(size=(n, d))
    )
    yield EmpiricalLaw.from_samples(a), EmpiricalLaw.from_samples(gen.normal(size=(n, d)))


def _transport_value(mu, nu):
    pts, delta = _signed_support(mu, nu)
    return _transport_bl(pts, delta if delta[0] > 0 else -delta)[0]


def test_line_matches_transport_lp_on_clouds():
    gen = np.random.default_rng(15)
    for n in (16, 96, 512):
        for mu, nu in _cloud_pairs(gen, n, 1):
            assert abs(bl_distance(mu, nu) - _transport_value(mu, nu)) < 1e-9


def test_constant_coordinates_are_dropped_exactly():
    gen = np.random.default_rng(16)
    for n in (8, 40):
        for mu, nu in _cloud_pairs(gen, n, 1):
            lift = [
                EmpiricalLaw(np.insert(law.points, 0, -1.25, axis=1))
                for law in (mu, nu)
            ]
            value = bl_distance(*lift)
            # the constant coordinate changes no distance: the same value
            # as the 1-d laws, and as the transport LP on the full points
            assert value == bl_distance(mu, nu)
            assert abs(value - _transport_value(*lift)) < 1e-9
    # a 3-d law with two varying coordinates goes to the transport LP on them
    a = gen.normal(size=(10, 3))
    b = gen.normal(size=(10, 3))
    a[:, 1] = b[:, 1] = 4.0
    mu, nu = EmpiricalLaw.from_samples(a), EmpiricalLaw.from_samples(b)
    assert abs(bl_distance(mu, nu) - _transport_value(mu, nu)) < 1e-9


def _reference_full_lp(mu, nu):
    """Full constraint set, reduced variables, solved by scipy."""
    pts, delta = _signed_support(mu, nu)
    n = len(pts)
    if n == 0:
        return 0.0
    iu, ju = np.triu_indices(n, k=1)
    d = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    rows = np.zeros((n + 2 * len(iu) + 1, n + 1))
    rhs = np.zeros(n + 2 * len(iu) + 1)
    rows[:n, :n] = np.eye(n)
    rows[:n, n] = -2.0
    r = n
    for i, j, dij in zip(iu, ju, d):
        rows[r, i], rows[r, j], rows[r, n], rhs[r] = 1.0, -1.0, dij, dij
        r += 1
        rows[r, i], rows[r, j], rows[r, n], rhs[r] = -1.0, 1.0, dij, dij
        r += 1
    rows[-1, n] = 1.0
    rhs[-1] = 1.0
    obj = np.concatenate([-delta, [0.0]])
    res = linprog(obj, A_ub=rows, b_ub=rhs, bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def test_matches_reference_solver_on_moderate_instances():
    gen = np.random.default_rng(14)
    pairs = [_random_pair(gen, max_pts=25) for _ in range(10)]
    pairs += list(_cloud_pairs(gen, 64, 2))
    for mu, nu in pairs:
        assert abs(bl_distance(mu, nu) - _reference_full_lp(mu, nu)) < 1e-7


def _coincident_pair(gen, dim=2):
    """Laws whose atoms repeat within each law, each row 1-4 times, and
    are shared between the two laws."""
    shared = gen.normal(size=(3, dim))
    laws = []
    for _ in range(2):
        own = gen.normal(size=(int(gen.integers(1, 6)), dim))
        pts = np.concatenate([shared, shared[:2], own])
        laws.append(EmpiricalLaw(np.repeat(pts, gen.integers(1, 5, size=len(pts)), axis=0)))
    return laws


def test_witness_certifies_the_value():
    gen = np.random.default_rng(21)
    pairs = [_random_pair(gen, max_pts=20, dim=dim) for dim in (1, 2) for _ in range(5)]
    pairs += [_coincident_pair(gen, dim) for dim in (1, 2) for _ in range(5)]
    pairs += list(_cloud_pairs(gen, 128, 1))
    for mu, nu in pairs:
        value, wit = bl_distance(mu, nu, return_witness=True)
        pts, delta = _signed_support(mu, nu)
        f, s, c = wit["f"], wit["s"], wit["c"]
        assert s + c <= 1.0 + 1e-12
        assert np.all(np.abs(f) <= s + 1e-9)
        diff = np.abs(f[:, None] - f[None, :])
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        assert np.all(diff <= c * dist + 1e-8 * (1.0 + dist))
        # the feasible witness bounds beta from below, the LP value from
        # above: the pair brackets the value to within 1e-9
        lower = float(delta @ f)
        assert -1e-12 <= value - lower <= 1e-9


def test_failed_solve_or_open_gap_raises(monkeypatch):
    import scipy.optimize

    real = scipy.optimize.linprog
    mu, nu = _random_pair(np.random.default_rng(22), dim=2)

    def failing(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status, res.message = 4, "numerical difficulties"
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", failing)
    with pytest.raises(EmpiricalLawError, match="numerical difficulties"):
        bl_distance(mu, nu)

    def loose(*args, **kwargs):
        res = real(*args, **kwargs)
        res.fun += 1e-6
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", loose)
    with pytest.raises(EmpiricalLawError, match="gap"):
        bl_distance(mu, nu)


def test_line_open_gap_or_round_cap_raises(monkeypatch):
    mu, nu = _random_pair(np.random.default_rng(23), dim=1)
    real_primal = levyap.apdist._line_primal
    monkeypatch.setattr(
        levyap.apdist, "_line_primal", lambda *args: 0.999 * real_primal(*args)
    )
    with pytest.raises(EmpiricalLawError, match="gap"):
        bl_distance(mu, nu)
    monkeypatch.undo()
    # this pair needs more than one cutting-plane round
    monkeypatch.setattr(levyap.apdist, "_LINE_ROUNDS", 1)
    with pytest.raises(EmpiricalLawError, match="did not converge in 1 "):
        bl_distance(mu, nu)


def test_support_cap_enforced(monkeypatch):
    gen = np.random.default_rng(30)
    mu = EmpiricalLaw.from_samples(gen.normal(size=(40, 1)))
    nu = EmpiricalLaw.from_samples(gen.normal(size=(40, 1)))
    monkeypatch.setattr(levyap.apdist, "SUPPORT_CAP", 50)
    with pytest.raises(EmpiricalLawError, match="cap 50"):
        bl_distance(mu, nu)


def test_benchmark_probe_times_every_smallest_cell():
    """``perfbench/probe.py`` builds its laws with ``EmpiricalLaw.from_samples``
    and times ``bl_distance`` on them; a cell of its smallest support
    size is never skipped, so each must read a measured time."""
    spec = importlib.util.spec_from_file_location(
        "probe", Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
    )
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    result = probe.run_probe(41, budget=2.0)
    smallest = [probe.metric_name(*c) for c in probe.cells() if c[1] == 16]
    assert len(smallest) == 6
    for name in smallest:
        assert name not in result["skipped"]
        assert result["ms"][name] > 0.0


def test_dimension_mismatch_rejected():
    mu = EmpiricalLaw.from_samples(np.zeros((2, 1)))
    nu = EmpiricalLaw.from_samples(np.zeros((2, 2)))
    with pytest.raises(EmpiricalLawError, match="dimension"):
        bl_distance(mu, nu)


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------


def _recording_scan(monkeypatch, ens, times, shifts, **kw):
    """Run the scan with bl_distance replaced by a recorder; returns the
    (later, earlier) law pairs it compared."""
    pairs = []

    def record(mu, nu):
        pairs.append((mu, nu))
        return 0.0

    monkeypatch.setattr(levyap.apdist, "bl_distance", record)
    ap_distribution_scan(
        ens, _on_grid(ens, times), _on_grid(ens, shifts), eps=0.1, **kw
    )
    return pairs


def test_scan_reads_laws_at_grid_times(monkeypatch):
    gen = np.random.default_rng(8)
    grid = np.linspace(0.0, 1.0, 11)
    values = gen.normal(size=(30, 11, 2))
    ens = _FakeEnsemble(grid, values)
    pairs = _recording_scan(monkeypatch, ens, [0.0, 0.5], [0.5])
    assert len(pairs) == 2  # (0.5, 0.0) and (1.0, 0.5): 1.0 is a scan time
    for (mu, nu), (i, j) in zip(pairs, [(5, 0), (10, 5)]):
        np.testing.assert_array_equal(mu.points, values[:, i, :])
        np.testing.assert_array_equal(nu.points, values[:, j, :])
    # law_support draws one set of paths and reads it at every time
    pairs = _recording_scan(monkeypatch, ens, [0.0, 0.5], [0.5], n_support=12, seed=4)
    paths = _law_paths(30, 12, seed=4)
    for (mu, nu), (i, j) in zip(pairs, [(5, 0), (10, 5)]):
        np.testing.assert_array_equal(mu.points, values[paths, i, :])
        np.testing.assert_array_equal(nu.points, values[paths, j, :])


def _circle_ensemble():
    # deterministic point mass moving on a circle with period 2
    grid = np.arange(0.0, 6.01, 0.5)
    values = np.stack([np.cos(np.pi * grid), np.sin(np.pi * grid)], axis=-1)[None]
    return _FakeEnsemble(grid, values)


# with shifts 1, 2 and 4 these base times make every grid time a scan time
_CIRCLE_TIMES = [0.0, 0.5, 1.0, 1.5, 2.0]


def test_scan_accepts_exact_periods():
    ens, shifts = _circle_ensemble(), [1.0, 2.0, 4.0]
    report = ap_distribution_scan(
        ens, _on_grid(ens, _CIRCLE_TIMES), _on_grid(ens, shifts), eps=1e-6
    )
    np.testing.assert_array_equal(report.accepted, [False, True, True])
    # a half period moves the mass to the antipode, distance 2 on the
    # circle, so beta = 2 d / (2 + d) = 1
    assert abs(report.sup_beta[0] - 1.0) < 1e-9
    assert report.max_gap == 2.0
    # every pair of scan times, not only those from a base time
    assert report.pairs_per_shift.tolist() == [11, 9, 5]
    d = report.as_dict()
    assert set(d) == {"epsilon", "shifts", "accepted_count", "max_gap"}
    assert d["epsilon"] == 1e-6 and d["accepted_count"] == 2 and d["max_gap"] == 2.0
    assert [(e["s"], e["accepted"]) for e in d["shifts"]] == [(1.0, False), (2.0, True), (4.0, True)]
    assert d["shifts"][0]["sup_beta"] == report.sup_beta[0]


def test_scan_with_no_accepted_shift_reports_infinite_gap():
    ens, shifts = _circle_ensemble(), [1.0, 3.0]
    report = ap_distribution_scan(
        ens, _on_grid(ens, _CIRCLE_TIMES), _on_grid(ens, shifts), eps=1e-6
    )
    assert not report.accepted.any()
    assert report.max_gap == float("inf")
    assert report.as_dict()["max_gap"] is None
    assert report.as_dict()["accepted_count"] == 0


def test_scan_is_deterministic():
    gen = np.random.default_rng(17)
    grid = np.linspace(0.0, 3.0, 31)
    values = gen.normal(size=(40, 31, 1)).cumsum(axis=1) * 0.1
    ens = _FakeEnsemble(grid, values)
    times, offsets = _on_grid(ens, grid[:16:5]), _on_grid(ens, [0.5, 1.0])
    r1 = ap_distribution_scan(ens, times, offsets, eps=0.5, n_support=20)
    r2 = ap_distribution_scan(ens, times, offsets, eps=0.5, n_support=20)
    assert r1.sup_beta.tobytes() == r2.sup_beta.tobytes()
    np.testing.assert_array_equal(r1.accepted, r2.accepted)
