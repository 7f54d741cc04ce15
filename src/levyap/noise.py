"""Two-sided Levy noise: specifications and path sampling.

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
can be regenerated bit-for-bit without storing it.  An address's stream
is ``Generator(Philox(SeedSequence(seed, spawn_key=key)))``;
``sample_noise`` derives the Philox keys of all its streams in one
vectorised pass of SeedSequence's hash (``_stream_keys``) and opens each
stream by re-keying one Philox generator of its own (``_KeyedStream``),
so calls on several threads at once do not share state.  The draws are
tested against that generator built afresh for each address, the test
oracle ``stream`` of ``tests/_noise_oracles.py``.  ``sample_noise``
accepts a ``path_offset`` so chunked pipelines produce the same paths as
a single monolithic call.

The spec is plain records: ``LevyProcessSpec`` holds the dimension, the
covariance Q as given (rows of numbers or an array, or None) and the
``JumpComponent`` tuple, and each mark law is one record (``PointMark``,
``UniformIntervalMark``, ``UniformAnnulusMark``) with the same six
methods.  Their checks and moments are pure Python, so checking a spec
whose covariance is diagonal runs no numpy code.

A sample is columnar: one ``NoiseSample`` holds the Wiener increments of
all paths in one array and the jump events of all paths as flat columns,
which is the form the solver reads.  The solver reads a sample a range
of paths at a time (``paths``).  A ``NoiseDraw`` is a sample not drawn,
the record of ``sample_noise``'s arguments: it draws the increments and
the events of a range of paths when asked, so a solver that reads them
a block of paths at a time never holds them all.
"""

from __future__ import annotations

import math
from collections import namedtuple
from numbers import Real
from typing import Optional

from . import LevyapError, _lazy_import

np = _lazy_import("numpy")

__all__ = [
    "NoiseSpecError",
    "PointMark",
    "UniformIntervalMark",
    "UniformAnnulusMark",
    "JumpComponent",
    "LevyProcessSpec",
    "NoiseSample",
    "NoiseDraw",
    "validate_spec",
    "sample_noise",
]


class NoiseSpecError(ValueError, LevyapError):
    """Raised when a noise specification is inconsistent."""


# Stream tags.  Positive/negative halves of the two-sided process use
# disjoint tags so the mirrored copy is independent of the forward copy.
_TAG_W_POS = 0
_TAG_W_NEG = 1
_TAG_J_POS = 2
_TAG_J_NEG = 3

# paths whose Wiener increments are scaled as one unit: the rounding of
# a correlated ``_mix`` product may depend on it
_GROUP = 16


# the hash constants of numpy's SeedSequence
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _stream_keys(seed: int, *key) -> np.ndarray:
    """The Philox keys of many (seed, key...) addresses in one pass.

    ``key`` holds ints or integer arrays, broadcast together; entry
    ``[i...]`` of the (..., 2) uint64 result is the Philox key of the
    address (seed, *(k[i...] for k in key)), which is
    ``SeedSequence(seed, spawn_key=...).generate_state(2, np.uint64)``,
    the key ``Philox(SeedSequence(seed, spawn_key=...))`` runs with.
    This is SeedSequence's mixing on uint32 arrays, one lane per address.
    The seed's words are shared by every lane, so a seed of any size
    works; each key element must be one 32-bit word.
    """
    seed = int(seed)
    if seed < 0:
        raise NoiseSpecError("seed must be nonnegative")
    parts = np.broadcast_arrays(*(np.asarray(k, dtype=np.int64) for k in key))
    shape = parts[0].shape
    for k in parts:
        if k.size and (k.min() < 0 or k.max() > _MASK32):
            bad = int(k.min()) if k.min() < 0 else int(k.max())
            raise NoiseSpecError(
                f"stream key word {bad} is outside [0, 2**32): path indices must stay below 2**32"
            )
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    # with a spawn key the seed's words are padded to the pool size
    words += [0] * (4 - len(words))
    lanes = int(np.prod(shape))
    entropy = [np.full(lanes, w, np.uint32) for w in words]
    entropy += [k.astype(np.uint32).reshape(-1) for k in parts]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): four words from the pool, paired low-high
    hash_const, out = _INIT_B, []
    for word in pool:
        word = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * np.uint32(hash_const)
        out.append((word ^ (word >> np.uint32(16))).astype(np.uint64))
    keys = np.stack([out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)], axis=-1)
    return keys.reshape(shape + (2,))


class _KeyedStream:
    """One Philox generator that opens any stream by re-keying in place.

    ``open(key)`` sets the whole Philox state (counter, key, output
    buffer, buffered 32-bit half) to that of a fresh generator with the
    Philox key ``key`` and returns the one ``Generator`` over it, so its
    draws are those of ``Generator(Philox(SeedSequence(...)))`` at the
    address whose key that is (``_stream_keys``).  That costs a state
    assignment instead of a SeedSequence, a Philox and a Generator.
    """

    def __init__(self):
        self._bits = np.random.Philox(0)
        self._gen = np.random.Generator(self._bits)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def open(self, key) -> np.random.Generator:
        self._state["state"]["key"] = key
        self._bits.state = self._state
        return self._gen


# ---------------------------------------------------------------------------
# mark distributions
# ---------------------------------------------------------------------------


class PointMark(namedtuple("PointMark", "x")):
    """The mark law concentrated at the point ``x``, a tuple of floats.

    Each mark law is a record with the same five methods: its dimension,
    ``draw``, its exact mean as Python floats (which makes the compensator
    of a mark-affine coefficient map exact), the bounds of the mark norm
    (which check the small/large region split) and ``validate``.
    """

    __slots__ = ()

    def dim(self) -> int:
        return len(self.x)

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return np.tile(np.asarray(self.x, dtype=float), (n, 1))

    def mean(self) -> tuple[float, ...]:
        return tuple(map(float, self.x))

    def norm_bounds(self) -> tuple[float, float]:
        """Return (min, max) of the mark norm over the support."""
        r = math.hypot(*self.x)
        return r, r

    def validate(self) -> None:
        vector = isinstance(self.x, (list, tuple)) and all(isinstance(v, Real) for v in self.x)
        if not (vector and all(map(math.isfinite, self.x))):
            raise NoiseSpecError("point mark must be a finite vector")


class UniformIntervalMark(namedtuple("UniformIntervalMark", "a b")):
    """The uniform mark law on the interval [a, b] of the line."""

    __slots__ = ()

    def dim(self) -> int:
        return 1

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.uniform(self.a, self.b, size=(n, 1))

    def mean(self) -> tuple[float]:
        return ((self.a + self.b) / 2.0,)

    def norm_bounds(self) -> tuple[float, float]:
        a, b = self
        lo = 0.0 if a <= 0.0 <= b else min(abs(a), abs(b))
        return lo, max(abs(a), abs(b))

    def validate(self) -> None:
        a, b = self
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise NoiseSpecError("uniform_interval mark needs a < b, finite")


class UniformAnnulusMark(namedtuple("UniformAnnulusMark", "r0 r1 d")):
    """The mark law in R^d whose norm is uniform on [r0, r1] and whose
    direction is uniform on the sphere (a random sign when d = 1)."""

    __slots__ = ()

    def dim(self) -> int:
        return self.d

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        radii = gen.uniform(self.r0, self.r1, size=n)
        if self.d == 1:
            signs = gen.integers(0, 2, size=n) * 2 - 1
            return (radii * signs)[:, None]
        z = gen.standard_normal(size=(n, self.d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return z * radii[:, None]

    def mean(self) -> tuple[float, ...]:
        return (0.0,) * self.d

    def norm_bounds(self) -> tuple[float, float]:
        return self.r0, self.r1

    def validate(self) -> None:
        if not (0.0 < self.r0 <= self.r1 and math.isfinite(self.r1)):
            raise NoiseSpecError("uniform_annulus mark needs 0 < r0 <= r1")
        if self.d < 1:
            raise NoiseSpecError("uniform_annulus mark needs dim >= 1")


# ---------------------------------------------------------------------------
# process specification
# ---------------------------------------------------------------------------


class JumpComponent(namedtuple("JumpComponent", "rate marks")):
    """One finite-activity jump stream: its rate and its mark law (a
    ``PointMark``, ``UniformIntervalMark`` or ``UniformAnnulusMark``).

    ``region`` follows from the marks by the Levy-Ito split at |x| = 1:
    ``"small"`` (compensated) when every mark norm is below 1, ``"large"``
    (not compensated) when every one is at least 1, else None, which
    ``validate_spec`` rejects.
    """

    __slots__ = ()

    @property
    def region(self) -> Optional[str]:
        rmin, rmax = self.marks.norm_bounds()
        if rmax < 1.0:
            return "small"
        return "large" if rmin >= 1.0 else None


LevyProcessSpec = namedtuple("LevyProcessSpec", "dim covariance jumps", defaults=(None, ()))
LevyProcessSpec.__doc__ = """Full two-sided Levy noise specification: the dimension, the
Wiener covariance Q per unit time (rows of numbers or an array; None for
no Wiener part) and a tuple of ``JumpComponent``."""


def validate_spec(spec: LevyProcessSpec) -> None:
    """Check a noise spec for internal consistency.

    Raises NoiseSpecError on: non-symmetric or indefinite Wiener
    covariance, a covariance whose symmetrisation (Q + Q^T)/2, which the
    sampler factors, overflows, dimension mismatches, nonpositive or
    infinite rates, invalid mark laws and mark norms on both sides of 1,
    each message starting with its spec field's path (``jumps[0].marks``).

    A covariance given as rows of numbers with only zeros off the
    diagonal is symmetric, and its diagonal holds its eigenvalues, so it
    is checked on its diagonal by the same rules, with no array built.
    Any other covariance is checked on its float array, with
    ``eigvalsh``.
    """
    if spec.dim < 1:
        raise NoiseSpecError("dim: noise dimension must be >= 1")
    if spec.covariance is not None:
        eigs = _diagonal(spec.covariance)
        if eigs is None:
            q = np.asarray(spec.covariance, dtype=float)
            if q.shape != (spec.dim, spec.dim):
                raise NoiseSpecError("covariance: wiener covariance must be dim x dim")
            if not np.all(np.isfinite(q)):
                raise NoiseSpecError("covariance: wiener covariance must be finite")
            if not np.allclose(q, q.T, atol=1e-12 * max(1.0, float(np.abs(q).max()))):
                raise NoiseSpecError("covariance: wiener covariance must be symmetric")
            with np.errstate(over="ignore"):
                q = (q + q.T) / 2.0
            if not np.all(np.isfinite(q)):
                raise NoiseSpecError("covariance: wiener covariance overflows when symmetrised")
            eigs = np.linalg.eigvalsh(q)
        elif len(eigs) != spec.dim:
            raise NoiseSpecError("covariance: wiener covariance must be dim x dim")
        elif not all(map(math.isfinite, eigs)):
            raise NoiseSpecError("covariance: wiener covariance must be finite")
        elif not all(math.isfinite(v + v) for v in eigs):
            raise NoiseSpecError("covariance: wiener covariance overflows when symmetrised")
        if min(eigs) < -1e-12 * max(1.0, max(eigs)):
            raise NoiseSpecError("covariance: wiener covariance must be positive semidefinite")
    for i, comp in enumerate(spec.jumps):
        if not (math.isfinite(comp.rate) and comp.rate > 0):
            raise NoiseSpecError(f"jumps[{i}].rate: rate must be finite and > 0")
        try:
            comp.marks.validate()
        except NoiseSpecError as exc:
            raise NoiseSpecError(f"jumps[{i}].marks: {exc}") from None
        if comp.marks.dim() != spec.dim:
            raise NoiseSpecError(f"jumps[{i}].marks: mark dimension mismatch")
        if comp.region is None:
            rmin, rmax = comp.marks.norm_bounds()
            raise NoiseSpecError(
                f"jumps[{i}].marks: mark norms {rmin} to {rmax} are neither all below 1 "
                "(small jumps) nor all at least 1 (large jumps)"
            )


def _diagonal(rows) -> Optional[list[float]]:
    """The diagonal, as floats, of a square matrix given as a list or
    tuple of rows with only zeros off the diagonal; else None."""
    if not isinstance(rows, (list, tuple)):
        return None
    n = len(rows)
    if any(not isinstance(row, (list, tuple)) or len(row) != n for row in rows):
        return None
    if any(float(v) != 0 for i, row in enumerate(rows) for j, v in enumerate(row) if j != i):
        return None
    return [float(row[i]) for i, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


class NoiseSample:
    """A frozen multi-path noise sample on one uniform grid, as arrays.

    The grid is stored by integer index (``k_lo`` .. ``k_lo + n_steps``)
    times the step ``h``.  ``dW[p, k]`` is the Wiener increment of path p
    over ``[t_k, t_{k+1}]``; ``dW`` has shape (paths, n_steps, dim).

    The jump events of all paths are flat columns, ordered by path and,
    within a path, by time (ties by component): ``event_path``,
    ``event_step`` (the step k with the event in [t_k, t_{k+1}), counted
    from the grid start), ``event_region`` (0 small, 1 large),
    ``event_marks`` (events, dim) and ``event_times``.
    """

    def __init__(
        self,
        spec: LevyProcessSpec,
        h: float,
        k_lo: int,
        n_steps: int,
        dW: np.ndarray,
        event_path: np.ndarray,
        event_step: np.ndarray,
        event_region: np.ndarray,
        event_marks: np.ndarray,
        event_times: np.ndarray,
    ):
        self.spec = spec
        self.h = h
        self.k_lo = k_lo
        self.n_steps = n_steps
        self.dW = dW
        self.event_path = event_path
        self.event_step = event_step
        self.event_region = event_region
        self.event_marks = event_marks
        self.event_times = event_times

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def grid(self) -> np.ndarray:
        return (self.k_lo + np.arange(self.n_steps + 1)) * self.h

    def paths(self, lo: int, hi: int) -> NoiseSample:
        """Paths [lo, hi) as a sample of their own, numbered from 0: views
        of ``dW`` and of the event columns, ``event_path`` shifted."""
        a, b = np.searchsorted(self.event_path, (lo, hi)).tolist()
        return NoiseSample(
            self.spec, self.h, self.k_lo, self.n_steps, self.dW[lo:hi],
            self.event_path[a:b] - lo, self.event_step[a:b], self.event_region[a:b],
            self.event_marks[a:b], self.event_times[a:b],
        )


class NoiseDraw(namedtuple("NoiseDraw", "spec k_lo n_steps h n_paths seed")):
    """The sample ``sample_noise(spec, k_lo, n_steps, h, n_paths, seed)``
    draws, not drawn: a record of its arguments.  ``paths(lo, hi)`` draws
    the sample of paths [lo, hi) anew at each call, increments and jump
    events, through ``sample_noise``, bitwise those paths of the full
    sample.  A call holds only its own arrays, so calls on several
    threads may overlap."""

    __slots__ = ()

    grid = NoiseSample.grid

    def paths(self, lo: int, hi: int) -> NoiseSample:
        """The sample of paths [lo, hi), numbered from 0, drawn now."""
        return sample_noise(self.spec, self.k_lo, self.n_steps, self.h, hi - lo, self.seed, lo)


def _mix(x, chol, out):
    """x @ chol.T into ``out``, which may be ``x``.  For one noise
    dimension that is one product, taken in place: matmul sums it from
    +0.0, which ``+= 0.0`` does, so the bits are the same, a -0.0 product
    included, at a fraction of the cost.  An in-place matmul copies ``x``
    first, as numpy does for overlapping operands."""
    if len(chol) > 1:
        return np.matmul(x, chol.T, out=out)
    np.multiply(x, chol[0, 0], out=out)
    out += 0.0
    return out


def sample_noise(
    spec: LevyProcessSpec,
    k_lo: int,
    n: int,
    h: float,
    n_paths: int,
    seed: int,
    path_offset: int = 0,
) -> NoiseSample:
    """Sample two-sided noise paths on the ``n`` steps h from step
    ``k_lo``, a window of whole steps that contains 0.

    Positive and negative half lines use independent stream tags; the
    negative half is an independent copy laid out in mirrored order,
    which realizes the two-sided construction at the level of increments
    and jump events.  Path ``j`` of this call is addressed by
    ``path_index = path_offset + j``: a chunked caller that splits
    ``n_paths`` across several calls gets bit-identical paths.

    The keys of every stream are derived in one pass (``_stream_keys``),
    and the streams are opened by re-keying one generator.  The Wiener
    normals of each group of ``_GROUP`` paths are drawn straight into
    ``dW`` and scaled there in place, the negative half line reversed
    path by path.  So beside ``dW`` the increments take one path's half
    line, and for a covariance of two or more dimensions the copy of a
    group's half line that numpy's in-place matmul makes.  The jump
    events are drawn path by path, a Poisson count and a few uniforms per
    (path, component, half line) stream.  Every stream is a function of its
    address alone, so any split of the paths gives the same bits.

    The spec and the integers are those of a validated ``Run``
    (``validate_config``): a checked spec, a window of at least one step
    that contains 0, a finite h > 0, and at least one path.
    """
    n_neg, n_pos = -k_lo, k_lo + n
    paths = path_offset + np.arange(n_paths)
    keyed = _KeyedStream()
    dW = np.zeros((n_paths, n, spec.dim))
    if spec.covariance is not None:
        q = np.asarray(spec.covariance, dtype=float)
        q = (q + q.T) / 2.0
        eigs, vecs = np.linalg.eigh(q)
        chol = vecs * np.sqrt(np.clip(eigs, 0.0, None))  # q = chol @ chol.T
        # keys of the (path, half line) streams, the positive half line first
        w_keys = _stream_keys(seed, paths[:, None], [_TAG_W_POS, _TAG_W_NEG])
        sqrt_h = np.sqrt(h)
        for lo in range(0, n_paths, _GROUP):
            hi = min(lo + _GROUP, n_paths)
            for j in range(lo, hi):
                if n_pos:
                    keyed.open(w_keys[j, 0]).standard_normal(out=dW[j, n_neg:])
                if n_neg:
                    keyed.open(w_keys[j, 1]).standard_normal(out=dW[j, :n_neg])
            if n_pos:
                pos = dW[lo:hi, n_neg:]
                pos *= sqrt_h
                _mix(pos, chol, pos)
            if n_neg:
                # mirrored order: increment over [t_k, t_k + h] for t_k < 0
                # is the (|t_k|/h - 1)-th increment of the mirrored copy
                neg = dW[lo:hi, :n_neg]
                _mix(neg, chol, neg)
                for row in neg:  # numpy buffers the overlap, one path's half line
                    np.multiply(row[::-1], sqrt_h, out=row)
    # keys of the (path, half line, component) streams, the positive half line first
    j_keys = _stream_keys(
        seed, paths[:, None, None], [[_TAG_J_POS], [_TAG_J_NEG]], np.arange(len(spec.jumps))
    )
    # step count and length of each half line
    half_lines = ((n_pos, n_pos * h), (n_neg, n_neg * h))
    # empty first entries, so a sample without events still concatenates
    times, marks = [np.zeros(0)], [np.zeros((0, spec.dim))]
    batches = []  # (path, component, count) of each drawn batch of events
    for j in range(n_paths):
        for ci, comp in enumerate(spec.jumps):
            for half, (steps, length) in enumerate(half_lines):
                if not steps:
                    continue
                gen = keyed.open(j_keys[j, half, ci])
                count = int(gen.poisson(comp.rate * length))
                if count:
                    u = np.sort(gen.uniform(0.0, length, size=count))
                    times.append(-u[::-1] if half else u)
                    marks.append(comp.marks.draw(gen, count))
                    batches.append((j, ci, count))

    batch = np.array(batches, dtype=np.int64).reshape(-1, 3)
    ev_path = np.repeat(batch[:, 0], batch[:, 2])
    ev_comp = np.repeat(batch[:, 1], batch[:, 2])
    ev_times = np.concatenate(times)
    order = np.lexsort((ev_comp, ev_times, ev_path))
    ev_times = ev_times[order]
    region = np.array([0 if c.region == "small" else 1 for c in spec.jumps], dtype=np.int64)
    return NoiseSample(
        spec, h, k_lo, n, dW,
        ev_path[order],
        # the clip keeps an event whose time rounds onto a window edge
        np.clip(np.floor(ev_times / h).astype(np.int64) + n_neg, 0, n - 1),
        region[ev_comp[order]],
        np.concatenate(marks, axis=0)[order],
        ev_times,
    )
