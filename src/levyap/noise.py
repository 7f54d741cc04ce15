"""Two-sided Levy noise: specifications, path sampling, time shifts.

The driving noise is a Levy process on the whole real line, decomposed as

    L(t) = a t + W(t) + (compensated small jumps) + (large jumps),

where W is a d-dimensional Wiener process with covariance Q and the jump
part has finite activity: each jump component is a compound Poisson
stream with a fixed arrival rate and a mark distribution supported either
strictly inside the unit ball ("small") or outside it ("large").  The
two-sided process glues an independent mirrored copy at the origin, so
increments on the negative half line come from a second, independent set
of streams.

Sampling is counter-based: every path and every stream within a path is
opened from a ``(seed, path_index, tag)`` key, so any path of any batch
can be regenerated bit-for-bit without storing it.  ``sample_noise``
accepts a ``path_offset`` so chunked pipelines produce the same paths as
a single monolithic call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "NoiseSpecError",
    "NoiseShiftError",
    "MarkSampler",
    "point_mark",
    "uniform_interval_mark",
    "uniform_annulus_mark",
    "mixture_mark",
    "WienerSpec",
    "JumpComponent",
    "LevyProcessSpec",
    "NoiseRealization",
    "validate_spec",
    "sample_noise",
    "shift_noise",
    "noise_equal",
    "events_in_steps",
    "stream",
]


class NoiseSpecError(ValueError):
    """Raised when a noise specification is inconsistent."""


class NoiseShiftError(ValueError):
    """Raised when a requested noise shift leaves the sampled window."""


# Stream tags.  Positive/negative halves of the two-sided process use
# disjoint tags so the mirrored copy is independent of the forward copy.
_TAG_W_POS = 0
_TAG_W_NEG = 1
_TAG_J_POS = 2
_TAG_J_NEG = 3

_GRID_ALIGN_TOL = 1e-9


def stream(seed: int, *key: int) -> np.random.Generator:
    """Open the counter-based generator for a (seed, key...) address."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# mark distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkSampler:
    """Mark distribution of one jump component.

    ``kind`` selects the family; ``params`` holds the family parameters.
    Every family knows how to draw marks, report its exact mean, bound the
    mark norm (used to check the small/large region split) and provide
    quadrature nodes for expectations of mark-dependent integrands.
    """

    kind: str
    params: dict

    def dim(self) -> int:
        if self.kind == "point":
            return len(self.params["x"])
        if self.kind == "uniform_interval":
            return 1
        if self.kind == "uniform_annulus":
            return int(self.params["dim"])
        if self.kind == "mixture":
            return self.params["components"][0][1].dim()
        raise NoiseSpecError(f"unknown mark sampler kind {self.kind!r}")

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "point":
            return np.tile(np.asarray(self.params["x"], dtype=float), (n, 1))
        if self.kind == "uniform_interval":
            a, b = self.params["a"], self.params["b"]
            return gen.uniform(a, b, size=(n, 1))
        if self.kind == "uniform_annulus":
            r0, r1 = self.params["r0"], self.params["r1"]
            d = int(self.params["dim"])
            radii = gen.uniform(r0, r1, size=n)
            if d == 1:
                signs = gen.integers(0, 2, size=n) * 2 - 1
                return (radii * signs)[:, None]
            z = gen.standard_normal(size=(n, d))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            return z * radii[:, None]
        if self.kind == "mixture":
            comps = self.params["components"]
            probs = np.array([w for w, _ in comps], dtype=float)
            idx = gen.choice(len(comps), size=n, p=probs)
            out = np.empty((n, self.dim()), dtype=float)
            for i, (_, sub) in enumerate(comps):
                mask = idx == i
                k = int(mask.sum())
                if k:
                    out[mask] = sub.draw(gen, k)
            return out
        raise NoiseSpecError(f"unknown mark sampler kind {self.kind!r}")

    def mean(self) -> np.ndarray:
        if self.kind == "point":
            return np.asarray(self.params["x"], dtype=float)
        if self.kind == "uniform_interval":
            return np.array([(self.params["a"] + self.params["b"]) / 2.0])
        if self.kind == "uniform_annulus":
            return np.zeros(int(self.params["dim"]))
        if self.kind == "mixture":
            return sum(w * sub.mean() for w, sub in self.params["components"])
        raise NoiseSpecError(f"unknown mark sampler kind {self.kind!r}")

    def norm_bounds(self) -> tuple[float, float]:
        """Return (min, max) of the mark norm over the support."""
        if self.kind == "point":
            r = float(np.linalg.norm(self.params["x"]))
            return r, r
        if self.kind == "uniform_interval":
            a, b = self.params["a"], self.params["b"]
            lo = 0.0 if a <= 0.0 <= b else min(abs(a), abs(b))
            return lo, max(abs(a), abs(b))
        if self.kind == "uniform_annulus":
            return float(self.params["r0"]), float(self.params["r1"])
        if self.kind == "mixture":
            bounds = [sub.norm_bounds() for _, sub in self.params["components"]]
            return min(b[0] for b in bounds), max(b[1] for b in bounds)
        raise NoiseSpecError(f"unknown mark sampler kind {self.kind!r}")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes/weights for expectations against the mark law.

        Exact for atomic families; Gauss-Legendre (and a uniform angular
        rule in dimension two) for the continuous ones.
        """
        if self.kind == "point":
            return np.asarray(self.params["x"], float)[None, :], np.array([1.0])
        if self.kind == "uniform_interval":
            x, w = np.polynomial.legendre.leggauss(16)
            a, b = self.params["a"], self.params["b"]
            pts = (a + b) / 2.0 + (b - a) / 2.0 * x
            return pts[:, None], w / 2.0
        if self.kind == "uniform_annulus":
            r0, r1 = self.params["r0"], self.params["r1"]
            d = int(self.params["dim"])
            x, w = np.polynomial.legendre.leggauss(12)
            radii = (r0 + r1) / 2.0 + (r1 - r0) / 2.0 * x
            if d == 1:
                pts = np.concatenate([radii, -radii])[:, None]
                wts = np.concatenate([w, w]) / 4.0
                return pts, wts
            if d == 2:
                ang = (np.arange(24) + 0.5) * (2 * np.pi / 24)
                ca, sa = np.cos(ang), np.sin(ang)
                pts = np.stack(
                    [np.outer(radii, ca).ravel(), np.outer(radii, sa).ravel()], axis=1
                )
                wts = np.outer(w / 2.0, np.full(24, 1.0 / 24)).ravel()
                return pts, wts
            raise NoiseSpecError("annulus quadrature supports dim 1 or 2 only")
        if self.kind == "mixture":
            pts, wts = [], []
            for wgt, sub in self.params["components"]:
                p, w = sub.nodes()
                pts.append(p)
                wts.append(wgt * w)
            return np.concatenate(pts, axis=0), np.concatenate(wts)
        raise NoiseSpecError(f"unknown mark sampler kind {self.kind!r}")

    def validate(self) -> None:
        if self.kind == "point":
            x = np.asarray(self.params["x"], dtype=float)
            if x.ndim != 1 or not np.all(np.isfinite(x)):
                raise NoiseSpecError("point mark must be a finite vector")
        elif self.kind == "uniform_interval":
            a, b = self.params["a"], self.params["b"]
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise NoiseSpecError("uniform_interval mark needs a < b, finite")
        elif self.kind == "uniform_annulus":
            r0, r1 = self.params["r0"], self.params["r1"]
            d = int(self.params["dim"])
            if not (0.0 < r0 <= r1 and np.isfinite(r1)):
                raise NoiseSpecError("uniform_annulus mark needs 0 < r0 <= r1")
            if d < 1:
                raise NoiseSpecError("uniform_annulus mark needs dim >= 1")
        elif self.kind == "mixture":
            comps = self.params["components"]
            if not comps:
                raise NoiseSpecError("mixture mark needs at least one component")
            total = sum(w for w, _ in comps)
            if abs(total - 1.0) > 1e-12 or any(w < 0 for w, _ in comps):
                raise NoiseSpecError("mixture weights must be nonnegative, sum to 1")
            dims = {sub.dim() for _, sub in comps}
            if len(dims) != 1:
                raise NoiseSpecError("mixture components must share a dimension")
            for _, sub in comps:
                sub.validate()
        else:
            raise NoiseSpecError(f"unknown mark sampler kind {self.kind!r}")


def point_mark(x: Sequence[float]) -> MarkSampler:
    return MarkSampler("point", {"x": tuple(float(v) for v in x)})


def uniform_interval_mark(a: float, b: float) -> MarkSampler:
    return MarkSampler("uniform_interval", {"a": float(a), "b": float(b)})


def uniform_annulus_mark(r0: float, r1: float, dim: int = 1) -> MarkSampler:
    return MarkSampler("uniform_annulus", {"r0": float(r0), "r1": float(r1), "dim": int(dim)})


def mixture_mark(components: Sequence[tuple[float, MarkSampler]]) -> MarkSampler:
    return MarkSampler("mixture", {"components": tuple((float(w), s) for w, s in components)})


# ---------------------------------------------------------------------------
# process specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WienerSpec:
    """Wiener part: dimension and covariance matrix Q (per unit time)."""

    dim: int
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))


@dataclass(frozen=True)
class JumpComponent:
    """One finite-activity jump stream.

    ``region`` declares where the marks live relative to the unit ball:
    ``"small"`` streams are compensated (martingale part), ``"large"``
    streams are not.
    """

    rate: float
    region: str
    marks: MarkSampler


@dataclass(frozen=True)
class LevyProcessSpec:
    """Full two-sided Levy noise specification."""

    dim: int
    drift: tuple[float, ...] = ()
    wiener: Optional[WienerSpec] = None
    jumps: tuple[JumpComponent, ...] = ()

    def __post_init__(self):
        if not self.drift:
            object.__setattr__(self, "drift", tuple(0.0 for _ in range(self.dim)))

    @property
    def large_jump_rate(self) -> float:
        """Total intensity mass outside the unit ball."""
        return float(sum(c.rate for c in self.jumps if c.region == "large"))

    @property
    def small_jump_rate(self) -> float:
        """Total intensity mass inside the unit ball."""
        return float(sum(c.rate for c in self.jumps if c.region == "small"))

    def small_second_moment(self) -> float:
        """Integral of |x|^2 against the intensity restricted to |x| < 1."""
        total = 0.0
        for comp in self.jumps:
            if comp.region != "small":
                continue
            pts, wts = comp.marks.nodes()
            total += comp.rate * float(np.sum(wts * np.sum(pts**2, axis=1)))
        return total


def validate_spec(spec: LevyProcessSpec) -> None:
    """Check a noise spec for internal consistency.

    Raises NoiseSpecError on: a nonzero drift, non-symmetric or
    indefinite Wiener covariance, dimension mismatches, nonpositive or infinite rates, and
    mark supports that contradict the declared small/large region.
    """
    if spec.dim < 1:
        raise NoiseSpecError("noise dimension must be >= 1")
    drift = np.asarray(spec.drift, dtype=float)
    if drift.shape != (spec.dim,) or not np.all(np.isfinite(drift)):
        raise NoiseSpecError("drift must be a finite vector of the noise dimension")
    if np.any(drift != 0.0):
        # the equation's noise has no drift term, and no solver reads one
        raise NoiseSpecError("levy.drift must be zero: a noise drift is not supported")
    if spec.wiener is not None:
        q = spec.wiener.covariance
        if spec.wiener.dim != spec.dim:
            raise NoiseSpecError("wiener dimension must match the noise dimension")
        if q.shape != (spec.dim, spec.dim):
            raise NoiseSpecError("wiener covariance must be dim x dim")
        if not np.all(np.isfinite(q)):
            raise NoiseSpecError("wiener covariance must be finite")
        if not np.allclose(q, q.T, atol=1e-12 * max(1.0, float(np.abs(q).max()))):
            raise NoiseSpecError("wiener covariance must be symmetric")
        eigs = np.linalg.eigvalsh((q + q.T) / 2.0)
        if eigs.min() < -1e-12 * max(1.0, eigs.max()):
            raise NoiseSpecError("wiener covariance must be positive semidefinite")
    for i, comp in enumerate(spec.jumps):
        if not (np.isfinite(comp.rate) and comp.rate > 0):
            raise NoiseSpecError(f"jump component {i}: rate must be finite and > 0")
        if comp.region not in ("small", "large"):
            raise NoiseSpecError(f"jump component {i}: region must be 'small' or 'large'")
        comp.marks.validate()
        if comp.marks.dim() != spec.dim:
            raise NoiseSpecError(f"jump component {i}: mark dimension mismatch")
        rmin, rmax = comp.marks.norm_bounds()
        if comp.region == "small" and rmax >= 1.0:
            raise NoiseSpecError(
                f"jump component {i}: declared small but marks reach norm {rmax}"
            )
        if comp.region == "large" and rmin < 1.0:
            raise NoiseSpecError(
                f"jump component {i}: declared large but marks reach norm {rmin}"
            )


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NoiseRealization:
    """One sampled noise path on a uniform grid.

    The grid is stored by integer index (``k_lo`` .. ``k_lo + n_steps``)
    times the step ``h``, so shifted views reproduce grid values exactly.
    ``dW[k]`` is the Wiener increment over ``[t_k, t_{k+1}]``.  Jump events
    carry their time, mark vector, region flag (0 small, 1 large) and the
    index of the component that produced them.  Event times are kept in
    the coordinates of the original sample (``jump_times_base``) and
    re-based on access, so shifting by ``s`` and then ``-s`` is exact.
    ``seed_key`` regenerates the path bit-for-bit via ``sample_noise``.
    """

    h: float
    k_lo: int
    n_steps: int
    dim: int
    dW: np.ndarray
    jump_times_base: np.ndarray
    jump_marks: np.ndarray
    jump_regions: np.ndarray
    jump_comp: np.ndarray
    seed_key: tuple[int, int]
    shift_steps: int = 0

    @property
    def grid(self) -> np.ndarray:
        return (self.k_lo + np.arange(self.n_steps + 1)) * self.h

    @property
    def jump_times(self) -> np.ndarray:
        if self.shift_steps == 0:
            return self.jump_times_base
        return self.jump_times_base - self.shift_steps * self.h

    @property
    def t_lo(self) -> float:
        return self.k_lo * self.h

    @property
    def t_hi(self) -> float:
        return (self.k_lo + self.n_steps) * self.h


def _steps_for(value: float, h: float, what: str) -> int:
    k = round(value / h)
    if abs(value - k * h) > _GRID_ALIGN_TOL * max(1.0, abs(value)):
        raise NoiseSpecError(f"{what} = {value} is not a multiple of the step {h}")
    return int(k)


def sample_noise(
    spec: LevyProcessSpec,
    window: tuple[float, float],
    h: float,
    n_paths: int,
    seed: int,
    path_offset: int = 0,
) -> list[NoiseRealization]:
    """Sample two-sided noise paths on the grid covering ``window``.

    The window must satisfy t_lo <= 0 <= t_hi and both endpoints must sit
    on the step grid.  Positive and negative half lines use independent
    stream tags; the negative half is an independent copy laid out in
    mirrored order, which realizes the two-sided construction at the level
    of increments and jump events.  Path ``j`` of this call is addressed
    by ``path_index = path_offset + j``: a chunked caller that splits
    ``n_paths`` across several calls gets bit-identical paths.
    """
    validate_spec(spec)
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (t_lo <= 0.0 <= t_hi) or t_lo == t_hi:
        raise NoiseSpecError("window must contain 0 with t_lo < t_hi")
    if not (np.isfinite(h) and h > 0):
        raise NoiseSpecError("step h must be finite and > 0")
    n_neg = _steps_for(-t_lo, h, "window start")
    n_pos = _steps_for(t_hi, h, "window end")
    n = n_neg + n_pos

    chol = None
    if spec.wiener is not None:
        q = (spec.wiener.covariance + spec.wiener.covariance.T) / 2.0
        eigs, vecs = np.linalg.eigh(q)
        eigs = np.clip(eigs, 0.0, None)
        chol = vecs * np.sqrt(eigs)  # q = chol @ chol.T

    out = []
    sqrt_h = np.sqrt(h)
    len_pos = n_pos * h
    len_neg = n_neg * h
    for j in range(n_paths):
        path = path_offset + j
        dW = np.zeros((n, spec.dim))
        if chol is not None:
            if n_pos:
                z = stream(seed, path, _TAG_W_POS).standard_normal((n_pos, spec.dim))
                dW[n_neg:] = sqrt_h * z @ chol.T
            if n_neg:
                z = stream(seed, path, _TAG_W_NEG).standard_normal((n_neg, spec.dim))
                # mirrored order: increment over [t_k, t_k + h] for t_k < 0
                # is the (|t_k|/h - 1)-th increment of the mirrored copy
                dW[:n_neg] = sqrt_h * (z @ chol.T)[::-1]

        times_all, marks_all, regions_all, comp_all = [], [], [], []
        for ci, comp in enumerate(spec.jumps):
            if n_pos:
                gen = stream(seed, path, _TAG_J_POS, ci)
                count = int(gen.poisson(comp.rate * len_pos))
                if count:
                    times = np.sort(gen.uniform(0.0, len_pos, size=count))
                    marks = comp.marks.draw(gen, count)
                    times_all.append(times)
                    marks_all.append(marks)
                    regions_all.append(
                        np.full(count, 0 if comp.region == "small" else 1, dtype=np.uint8)
                    )
                    comp_all.append(np.full(count, ci, dtype=np.int16))
            if n_neg:
                gen = stream(seed, path, _TAG_J_NEG, ci)
                count = int(gen.poisson(comp.rate * len_neg))
                if count:
                    times = -np.sort(gen.uniform(0.0, len_neg, size=count))[::-1]
                    marks = comp.marks.draw(gen, count)
                    times_all.append(times)
                    marks_all.append(marks)
                    regions_all.append(
                        np.full(count, 0 if comp.region == "small" else 1, dtype=np.uint8)
                    )
                    comp_all.append(np.full(count, ci, dtype=np.int16))
        if times_all:
            times = np.concatenate(times_all)
            marks = np.concatenate(marks_all, axis=0)
            regions = np.concatenate(regions_all)
            comps = np.concatenate(comp_all)
            order = np.lexsort((comps, times))
            times, marks, regions, comps = (
                times[order],
                marks[order],
                regions[order],
                comps[order],
            )
        else:
            times = np.zeros(0)
            marks = np.zeros((0, spec.dim))
            regions = np.zeros(0, dtype=np.uint8)
            comps = np.zeros(0, dtype=np.int16)

        out.append(
            NoiseRealization(
                h=h,
                k_lo=-n_neg,
                n_steps=n,
                dim=spec.dim,
                dW=dW,
                jump_times_base=times,
                jump_marks=marks,
                jump_regions=regions,
                jump_comp=comps,
                seed_key=(int(seed), int(path)),
            )
        )
    return out


def shift_noise(
    r: NoiseRealization,
    s: float,
    window: Optional[tuple[float, float]] = None,
) -> NoiseRealization:
    """Re-base a realization by time shift ``s`` (a multiple of the step).

    The result represents the increments of ``t -> L(t + s) - L(s)``: grid
    values drop by ``s``, Wiener increments keep their order, jump events
    are re-timed by ``-s``.  With ``window`` given, the result is cropped
    to it; the requested window must lie inside the shifted one.  Shift 0
    is the identity and shifting by ``s`` then ``-s`` restores the input.
    """
    m = round(s / r.h)
    if abs(s - m * r.h) > _GRID_ALIGN_TOL * max(1.0, abs(s)):
        raise NoiseShiftError(f"shift {s} is not a multiple of the step {r.h}")
    k_lo = r.k_lo - m
    k_hi = k_lo + r.n_steps
    if window is None:
        lo, hi = k_lo, k_hi
    else:
        lo = _steps_for(window[0], r.h, "window start")
        hi = _steps_for(window[1], r.h, "window end")
        if lo < k_lo or hi > k_hi or lo >= hi:
            raise NoiseShiftError(
                f"window {window} not contained in shifted span "
                f"[{k_lo * r.h}, {k_hi * r.h}]"
            )
    a = lo - k_lo
    b = hi - k_lo
    shift_total = r.shift_steps + m
    # event step indices in the shifted coordinates; integer arithmetic
    # keeps crop decisions independent of how the shift was reached
    ev_k = np.floor(r.jump_times_base / r.h).astype(np.int64) - shift_total
    keep = (ev_k >= lo) & (ev_k < hi)
    return NoiseRealization(
        h=r.h,
        k_lo=lo,
        n_steps=b - a,
        dim=r.dim,
        dW=r.dW[a:b].copy(),
        jump_times_base=r.jump_times_base[keep].copy(),
        jump_marks=r.jump_marks[keep].copy(),
        jump_regions=r.jump_regions[keep].copy(),
        jump_comp=r.jump_comp[keep].copy(),
        seed_key=r.seed_key,
        shift_steps=shift_total,
    )


def noise_equal(a: NoiseRealization, b: NoiseRealization) -> bool:
    """Exact equality of two realizations (grids, increments, events)."""
    return (
        a.h == b.h
        and a.k_lo == b.k_lo
        and a.n_steps == b.n_steps
        and a.dim == b.dim
        and np.array_equal(a.dW, b.dW)
        and np.array_equal(a.jump_times, b.jump_times)
        and np.array_equal(a.jump_marks, b.jump_marks)
        and np.array_equal(a.jump_regions, b.jump_regions)
        and np.array_equal(a.jump_comp, b.jump_comp)
    )


def events_in_steps(r: NoiseRealization) -> np.ndarray:
    """Step index of every jump event: event at time tau in [t_k, t_{k+1})
    maps to k, counted from the start of the realization's grid."""
    if len(r.jump_times_base) == 0:
        return np.zeros(0, dtype=np.int64)
    idx = (
        np.floor(r.jump_times_base / r.h).astype(np.int64)
        - r.shift_steps
        - r.k_lo
    )
    return np.clip(idx, 0, r.n_steps - 1)
