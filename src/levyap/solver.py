"""Mild solutions of semilinear jump-diffusion systems whose linear part
has an exponential dichotomy.

The central object is the integral operator that maps a candidate path
process Y to

    (S Y)(t) =   integral over s <= t of   e^{A(t-s)} P  [dF(s, Y)]
               - integral over s >= t of   e^{A(t-s)} (I-P) [dF(s, Y)],

where dF collects the drift, the Wiener term, the compensated small
jumps and the large jumps.  Under the contraction conditions checked by
``config.check_conditions`` the operator has a unique fixed point, the
unique L2-bounded mild solution, and Picard iteration converges
geometrically with ratio eta in mean square.  ``picard_solve``
discretizes the operator with windowed convolutions truncated at a
horizon T_c (reported tail factor K e^{-omega T_c} / omega) and iterates
it on a frozen noise sample (common random numbers).

Truncated integrals are clipped at the sample window edges, so iterates
live on one fixed grid; points further than T_c from the edges carry
the full two-sided window.

Each truncated convolution is the difference of two accumulations w =
T_c / h steps apart, and an accumulation is a first-order linear
recurrence in time.  The solver runs it without a Python time loop: in
the Schur coordinates of the reduced one-step propagator the recurrence
is triangular, and every mode is a scalar scan z_{k+1} = lam z_k + b_k
computed by block-scaled cumulative sums (Blelloch, "Prefix sums and
their applications", 1990).

The noise is read a block of 64 paths at a time: the worker that sweeps
a block draws its Wiener increments and jump events (``NoiseDraw``) or
takes views of them from a drawn ``NoiseSample`` (``paths``), and
prepares the jump terms at the block's events.  Everything that depends
neither on the iterate nor on the noise is decided once per Picard solve
in a plan (``_Plan``): the non-empty coefficient entries with their
time-only signals on the grid, each stochastic entry with its noise
column (the small-jump compensator's factor is -h), the jump maps, each
live mode's forcing, couplings and scan powers, and each reached
coordinate's nonzero assembly terms.  Each chunk of paths then runs
those lists in a path-major kernel that decides nothing: (paths, time)
rows with time contiguous, forcing added straight into the modal
accumulations.

S maps each path to itself, so each block of paths is a Monte-Carlo
sample of the fixed point on its own, solved to its own stop: a block
draws its noise, overwrites its states in place, sweep after sweep,
until its own gap is at most the tolerance, keeps the states at the grid
points the caller asks for, and drops the noise.  The blocks run in
rounds of one block per worker (the schedule is stated in
``_iterate``).  A sweep takes the moment and gap sums as it goes, one
reduce per chunk and coordinate, and the blocks' sums are added in block
order, so results are bitwise identical for any chunking and thread
count.  The solve holds the kept points of every path plus, per worker,
one block's states, noise and scratch.  A block's jump values are
computed once per sweep, before its first chunk.  The first sweep starts
from zero states, where every grid term's value depends on the time
alone: each chunk reads its state columns as one row of paths and
broadcasts the values over its paths.

The plan finds the output coordinates S can reach at all (some forcing
row that can exist drives a mode that maps back to them), and only those
are stored: S is zero in every other coordinate, whatever the iterate,
so a term that reads one reads a (1, n) row of +0.0 that broadcasts
over the paths.  The states are stored coordinate-major, one contiguous
(paths, n + 1) slab per reached coordinate; ``PathEnsemble.values`` is
then a (paths, points, reached coordinates) view of that storage.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from . import LevyapError
from .coefficients import (
    CoefficientSet,
    add_terms,
    compensator_terms,
    diffusion_terms,
    drift_terms,
    jump_terms,
    point_values,
    term_value,
)
from .config import BLOCK_PATHS
from .dichotomy import DichotomousSystem
from .noise import NoiseSample

__all__ = [
    "SolverError",
    "PathEnsemble",
    "PicardResult",
    "picard_solve",
]

# path steps per chunk by default: each (paths, time) scratch row of a
# worker, and each temporary numpy makes for a chunk, is then at most
# 1 MB.  glibc keeps freed blocks below its dynamic mmap/trim threshold
# resident, so smaller temporaries keep the peak RSS down.  The rows of
# a chunk of a 6144-step grid lie past a 2 MiB per-core L2 cache: a
# multiply over seven (paths, 6145) arrays took 1.7 ns per value at 16
# and 8 paths, 1.0 ns at 4 (2-core Xeon).  But a chunk also costs about
# 60-150 us of interpreter work, and on example41 at h = 1/1024 with 1024
# paths (2 threads) a solve took 0.72-0.73 s with 16-path chunks (the
# default), 0.71-0.76 s with 8 and 0.85-0.97 s with 4; smaller chunks pay
# only if the per-chunk cost falls much further.
_CHUNK_BUDGET = 131_072
# largest |log|lam|| * block of one scan block: lam^{-i} stays below e^600
_SCAN_NATS = 600.0


class SolverError(RuntimeError, LevyapError):
    """Raised on bad solver inputs, blow-up or windowing violations."""


# ---------------------------------------------------------------------------
# path ensembles
# ---------------------------------------------------------------------------


class PathEnsemble:
    """States of M paths on a shared uniform grid.

    The grid is integer-indexed (``k_lo`` .. ``k_lo + n_steps`` times
    ``h``) like the noise grid, so ensembles and noise windows align
    exactly.  The states have ``dim`` coordinates, of which ``values``
    holds those in ``coords`` (increasing): it has shape (paths, rows,
    len(coords)), and every other coordinate is +0.0 throughout.  A row
    is a grid point of ``points`` (increasing steps from ``k_lo``), or
    every grid point when ``points`` is None, and then ``n_steps`` is
    the rows less one.  ``values`` may be a view of coordinate-major
    (coordinates, paths, rows) storage, as the result of
    ``picard_solve`` is, whose moment sums prove every state finite.
    """

    def __init__(
        self, h: float, k_lo: int, values: np.ndarray, dim: int, coords, points=None, n_steps=None
    ):
        self.h = h
        self.k_lo = k_lo
        self.values = values
        self.dim = dim
        self.coords = tuple(coords)
        self.points = points
        self.n_steps = values.shape[1] - 1 if n_steps is None else n_steps

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def rows(self, points) -> np.ndarray:
        """The rows of ``values`` at the grid points ``points``, each one
        the ensemble holds."""
        points = np.asarray(points, dtype=np.intp)
        if self.points is None:
            return points
        at = np.searchsorted(self.points, points)
        if not np.array_equal(np.take(self.points, at, mode="clip"), points):
            raise SolverError("the ensemble does not hold every grid point asked for")
        return at


def _sup_mean(sums: np.ndarray, m: int, reach: list, pad: np.ndarray, row: np.ndarray) -> float:
    """Largest value over the grid of the path-average whose sums over
    the m paths are ``sums``, a row per coordinate of ``reach``, added
    up over the coordinates.  The sums go to the columns ``reach`` of
    ``pad``, a (times, dim) array whose other columns hold +0.0, so the
    coordinates are added as one C-contiguous row per time, into
    ``row``, and round as the sums of every coordinate do.  A NaN or an
    infinite sum makes it non-finite."""
    pad[:, reach] = sums.T
    return float(np.add.reduce(pad, axis=1, out=row).max()) / m


# ---------------------------------------------------------------------------
# the integral operator
# ---------------------------------------------------------------------------


class _ModalHalf(
    namedtuple("_ModalHalf", "tri drift_map stoch_map back back_win reverse")
):
    """One half of S in the Schur coordinates of its one-step propagator.

    The accumulation R_{k+1} = prop R_k + ker f_k + stoch stoch_k of the
    old per-step loop stays in range(U), where U is the orthonormal basis
    of the half's invariant range.  With the reduced propagator
    U^T prop U = Z T Z^H (T upper triangular) it becomes the triangular
    recurrence z_{k+1} = T z_k + b_k, b_k = drift_map f_k + stoch_map
    stoch_k, and R_k = back z_k.  The window is R_k - win R_{k-w} =
    back z_k - back_win z_{k-w}.  T and Z are real unless the propagator
    has complex eigenvalues.  The unstable half runs backward in time
    (``reverse``) and stores z time-reversed.  All fields but
    ``reverse`` are arrays.
    """

    __slots__ = ()

    @classmethod
    def build(cls, basis, prop, ker, stoch, win, reverse) -> "_ModalHalf":
        tri = basis.T @ prop @ basis
        if np.any(np.tril(tri, -1)):
            # imported here, not at module level, so that the CLI, and any
            # command on a system whose reduced propagators are already
            # triangular (every diagonal one), loads no scipy module
            from scipy.linalg import rsf2csf, schur

            tri, z = schur(tri)
            if np.any(np.diag(tri, -1) != 0.0):  # 2x2 blocks: complex eigenvalues
                tri, z = rsf2csf(tri, z)
        else:  # upper triangular already: its own Schur form
            z = np.eye(len(tri))
        to_modal = z.conj().T @ basis.T
        back = basis @ z
        return cls(
            tri=np.triu(tri),
            drift_map=to_modal @ ker,
            stoch_map=to_modal @ stoch,
            back=back,
            back_win=win @ back,
            reverse=reverse,
        )


def _modal_halves(sys: DichotomousSystem, h: float, w: int) -> list[_ModalHalf]:
    """The stable and the unstable half of S; empty ranges are left out.
    Stochastic increments enter the stable half through the one-step
    propagator and the unstable half directly."""
    halves = []
    if sys.rank_stable:
        prop = sys.stable_matrix(h)
        halves.append(_ModalHalf.build(
            sys.basis_stable, prop, sys.stable_kernel_matrix(h), prop,
            sys.stable_matrix(w * h), reverse=False,
        ))
    if sys.rank_unstable:
        halves.append(_ModalHalf.build(
            sys.basis_unstable, sys.unstable_matrix(-h), sys.unstable_kernel_matrix(-h),
            sys.j, sys.unstable_matrix(-w * h), reverse=True,
        ))
    return halves


def _scan_block(lam, n: int) -> int:
    """Steps per block of a length-n scan with multiplier lam."""
    mag = abs(math.log(abs(lam))) if lam != 0 else math.inf
    return n if mag * n <= _SCAN_NATS else max(1, int(_SCAN_NATS / mag))


def _scan_powers(lam, n: int) -> tuple:
    """The block length L of a length-n scan with multiplier lam, and the
    powers lam^{-i}, lam^i and lam^{i+1}, i < L, that ``_scan`` scales
    by."""
    block = _scan_block(lam, n)
    i = np.arange(block)
    return block, lam ** -i, lam**i, lam ** (i + 1)


def _scan(powers: tuple, x: np.ndarray, buf: np.ndarray) -> None:
    """In place along the last axis of the (paths, n) array x:
    x_k <- sum_{i <= k} lam^{k-i} x_i, with ``powers`` from
    ``_scan_powers(lam, n)``.

    Each block of L steps is scaled by lam^{-i}, summed by ``cumsum`` and
    rescaled by lam^i; the value entering the block is carried in with
    lam^{i+1}, formed in ``buf``, which has x's dtype and at least its
    width.  L keeps |log|lam|| L within ``_SCAN_NATS`` so neither scale
    factor leaves double range, whatever the stiffness.
    """
    n = x.shape[-1]
    block, down, up, carry = powers
    for s in range(0, n, block):
        seg = x[..., s : s + block]
        size = seg.shape[-1]
        seg *= down[:size]
        np.cumsum(seg, axis=-1, out=seg)
        seg *= up[:size]
        if s:
            seg += np.multiply(carry[:size], x[..., s - 1 : s], out=buf[:, :size])


def _axpy(y: np.ndarray, a, x: np.ndarray, buf: np.ndarray, cbuf, fresh: bool = False) -> None:
    """y += a * x, or y = a * x when ``fresh``.  The product is formed in
    ``y`` itself when ``fresh``, else in ``buf``, or in the complex
    ``cbuf`` for a complex ``a``.  ``x`` may be a (1, n) row that
    broadcasts against ``y``."""
    cplx = isinstance(a, complex)  # numpy's complex scalars are Python complex
    out = y if fresh else (cbuf if cplx else buf)[:, : x.shape[1]]
    prod = np.multiply(a, x, out=out) if cplx else np.multiply(x, a, out=out)
    if not fresh:
        y += prod


def _modal_scan(half: _ModalHalf, modes, rows: tuple, z: np.ndarray, buf, cbuf):
    """Write into ``z``, shape (r, q, n + 1), the accumulations of the
    live ``modes`` of ``half`` (``_Mode`` records, in index order) driven
    by the drift and stochastic forcing ``rows``, two dicts of (q, n)
    rows, or (1, n) rows that broadcast, by state coordinate, with
    z[:, :, 0] zero.  Other modes are neither written nor read.

    A mode's first forcing term is written into it, not added to zeros,
    and a mode with no forcing of its own is zeroed.  The products then
    differ from a sum from zero at most in the sign of a zero, which the
    assembly's ``+ 0.0`` (``_add_real``) erases.  A reverse half runs
    from the window end and stores z time-reversed: its forcing is
    written through a reversed view."""
    cols = slice(None, 0, -1) if half.reverse else slice(1, None)
    for mode in modes:
        zm = z[mode.index]
        zm[:, mode.blank] = 0.0
        for k, (kind, i, coef) in enumerate(mode.forcing):
            _axpy(zm[:, cols], coef, rows[kind][i], buf, cbuf, fresh=not k)
    # back-substitution: mode m is driven by the live modes after it
    scan_buf = cbuf if z.dtype.kind == "c" else buf
    for mode in reversed(modes):
        zm = z[mode.index, :, 1:]
        for j, coef in mode.couplings:
            _axpy(zm, coef, z[j, :, :-1], buf, cbuf)
        _scan(mode.powers, zm, scan_buf)


def _add_real(out: np.ndarray, coef, z: np.ndarray, buf, cbuf, fresh: bool) -> None:
    """out += Re(coef z), or out = Re(coef z) + 0.0 when ``fresh``.  The
    ``+ 0.0`` gives what adding to a zeroed ``out`` gives (a -0.0 product
    becomes +0.0), so ``out`` never holds -0.0.  A complex product is
    formed in ``cbuf``, a real one in ``buf``, or in ``out`` itself when
    ``fresh``, where a factor 1.0 is not applied."""
    if isinstance(coef, complex) or z.dtype.kind == "c":
        val = np.multiply(coef, z, out=cbuf[:, : z.shape[1]]).real
    elif fresh:
        val = z if coef == 1.0 else np.multiply(z, coef, out=out)
    else:
        val = np.multiply(z, coef, out=buf[:, : z.shape[1]])
    if fresh:
        np.add(val, 0.0, out=out)
    else:
        out += val


_Mode = namedtuple("_Mode", "index forcing couplings powers blank")
_Mode.__doc__ = """One live mode of a modal half, as the chunk kernel runs it: its
``index`` in the half, its ``forcing`` as (kind, coordinate,
coefficient) triples in the order they are added (kind 0 a drift row, 1
a stochastic row), its ``couplings`` as (mode, coefficient) pairs to
the later live modes, the scan ``powers`` of its multiplier
(``_scan_powers``), and the columns ``blank`` of its accumulation that
the forcing does not write, zeroed first: the start, or all of it for a
mode with no forcing of its own."""


class _Jumps:
    """The jump events of one region (``region`` 0 small, 1 large) of a
    block's sample ``noise`` with the terms of the region's map ``tmap``
    prepared at them: ``rows`` are the state coordinates it acts on,
    ``terms`` the prepared terms of each state coordinate (``jump_terms``
    at the events' times on the grid and their marks), ``path`` and
    ``step`` the events' paths, counted from the block's first, and
    steps, all in sample order, so by path: the events of the block's
    paths [lo, hi) are ``starts[lo]:starts[hi]``, a list of Python ints,
    which index faster than numpy scalars."""

    def __init__(self, tmap, region: int, noise: NoiseSample):
        mask = noise.event_region == region
        self.path, self.step = noise.event_path[mask], noise.event_step[mask]
        self.rows = tuple(i for i, terms in enumerate(tmap) if terms)
        self.terms = jump_terms(tmap, noise.grid[self.step], noise.event_marks[mask])
        self.starts = np.searchsorted(self.path, np.arange(noise.n_paths + 1)).tolist()


class _Plan(
    namedtuple("_Plan", "noise w dim halves modes jumps coords zeros drift stoch zeroed assembly")
):
    """What one application of S needs that depends neither on the
    iterate nor on the noise, built once per Picard solve: every
    decision about the structure of the chunk kernel, so the kernel runs
    flat lists.  ``noise`` is the ``NoiseSample`` or ``NoiseDraw`` that
    each block of paths takes its noise from (``paths``).

    ``w`` is the truncation horizon in steps, with the preconditions of
    ``picard_solve``, and ``dim`` the state dimension.  ``halves`` are
    the modal halves of S that have a live mode, ``modes`` the live
    modes of each (``_Mode``): a mode is live if a nonzero entry of a
    forcing row that can exist drives it, or a nonzero coupling ties it
    to a later live mode.
    ``jumps`` holds the (region, map) of the small and then the large
    jumps, for each region whose map acts on some coordinate; a block
    prepares the map's terms at its own events when it draws them
    (``_draw_block``).

    ``drift`` holds the (coordinate, terms) of each non-empty drift
    entry and ``stoch`` the (coordinate, entries) of each coordinate with
    a diffusion or a compensator entry, each entry (terms, column): a
    diffusion entry's factor is column ``column`` of the Wiener
    increments, which each block of paths draws for itself, and the
    small-jump compensator's (weights folded into its terms, column
    None) is -h.  The terms' time-only signals are evaluated on the
    grid.  ``zeroed`` are the coordinates whose stochastic row only jumps
    fill.  ``coords`` pairs each state coordinate that some grid term
    reads with its row in the states, which hold the coordinates of
    ``reach`` in order, or with None for a coordinate outside ``reach``:
    the terms read ``zeros`` for it, one (1, n) row of +0.0 (None when
    no term reads such a coordinate).

    ``assembly`` holds, for each output coordinate S reaches, the columns
    ``blank`` that its first term does not cover and its nonzero terms
    (half, z index, output columns, sign * coefficient): a mode's full
    accumulation and its accumulation w steps away, the stable half's
    window added and the unstable one's subtracted.  ``reach`` lists
    those coordinates: S is zero in every other one, whatever the
    iterate.
    """

    __slots__ = ()

    @property
    def reach(self) -> tuple[int, ...]:
        return tuple(i for i, _, _ in self.assembly)

    @classmethod
    def build(cls, sys, cs, noise, w) -> "_Plan":
        # the blocks draw with numpy.random; loaded here, before a worker
        # holds a block, its import took 1.2 MB off a cold example41
        # run's peak RSS
        import numpy.random  # noqa: F401

        h, n = noise.h, noise.n_steps
        ts = noise.grid[:-1]
        drift, stoch = [], []
        for i, (f, g, comp) in enumerate(
            zip(drift_terms(cs, ts), diffusion_terms(cs, ts), compensator_terms(cs, noise.spec, ts))
        ):
            entries = [(t, j) for j, t in enumerate(g) if t]
            if comp:
                entries.append((comp, None))
            if f:
                drift.append((i, f))
            if entries:
                stoch.append((i, tuple(entries)))
        grid_terms = [t for _, f in drift for t in f]
        grid_terms += [t for _, entries in stoch for terms, _ in entries for t in terms]
        jumps = tuple(
            (region, tmap)
            for region, tmap in enumerate((cs.jump_small, cs.jump_large))
            if any(tmap)
        )
        noise_rows = {i for i, _ in stoch}
        jump_rows = {i for _, tmap in jumps for i, terms in enumerate(tmap) if terms}
        forced = ({i for i, _ in drift}, noise_rows | jump_rows)

        halves, modes = [], []
        for half in _modal_halves(sys, h, w):
            maps = (half.drift_map, half.stoch_map)
            live = {}
            for m in range(len(half.tri) - 1, -1, -1):
                forcing = tuple(
                    (kind, i, maps[kind][m, i])
                    for i in range(sys.dim)
                    for kind in (0, 1)
                    if i in forced[kind] and maps[kind][m, i] != 0
                )
                couplings = tuple(
                    (j, half.tri[m, j]) for j in sorted(live) if half.tri[m, j] != 0
                )
                if forcing or couplings:
                    blank = slice(0, 1) if forcing else slice(None)
                    live[m] = _Mode(m, forcing, couplings, _scan_powers(half.tri[m, m], n), blank)
            if live:
                halves.append(half)
                modes.append(tuple(live[m] for m in sorted(live)))

        def parts(half):
            """(sign, coefficients, output columns, columns left blank,
            z columns) of a mode's full accumulation and of its
            accumulation w steps away; a reverse half's z is time-reversed."""
            if half.reverse:
                return (
                    (-1.0, half.back, slice(None), slice(0, 0), slice(None, None, -1)),
                    (1.0, half.back_win, slice(None, n + 1 - w), slice(n + 1 - w, None),
                     slice(n - w, None, -1)),
                )
            return (
                (1.0, half.back, slice(None), slice(0, 0), slice(None)),
                (-1.0, half.back_win, slice(w, None), slice(None, w), slice(None, -w)),
            )

        assembly = []
        for i in range(sys.dim):
            terms, blanks = [], []
            for k, (half, live) in enumerate(zip(halves, modes)):
                for mode in live:
                    for sign, coefs, out_cols, blank, z_cols in parts(half):
                        if coefs[i, mode.index] != 0:
                            blanks.append(blank)
                            at = (mode.index, slice(None), z_cols)
                            terms.append((k, at, out_cols, sign * coefs[i, mode.index]))
            if terms:
                assembly.append((i, blanks[0], tuple(terms)))
        reach = [i for i, _, _ in assembly]
        read = sorted({t.coord for t in grid_terms if t.kernel != "const"})
        coords = tuple((c, reach.index(c) if c in reach else None) for c in read)
        return cls(
            noise=noise,
            w=w,
            dim=sys.dim,
            halves=tuple(halves),
            modes=tuple(modes),
            jumps=jumps,
            coords=coords,
            zeros=np.zeros((1, n)) if any(k is None for _, k in coords) else None,
            drift=tuple(drift),
            stoch=tuple(stoch),
            zeroed=tuple(sorted(jump_rows - noise_rows)),
            assembly=tuple(assembly),
        )


class _Scratch:
    """One worker's (paths, time) arrays for chunks of up to ``paths``
    paths, allocated once per solve and worker as the rows of one array.  The kernel
    works in views of them, so a chunk allocates no array of its size.

    ``_apply_chunk`` runs in three phases, and arrays whose phases do not
    overlap share rows:

    - forcing: ``later`` for the stochastic terms after a row's first
      and ``sum_buf`` for ``add_terms`` build the drift and stochastic
      rows from the state columns, which are views of the block's states; the
      zero sweep evaluates a stochastic entry into the (1, n) row
      ``shared``, apart from the rows its noise product fills.
      ``later`` exists only when some coordinate has two or more
      stochastic entries, ``sum_buf`` only when some entry has two or
      more terms, ``shared`` only when some coordinate has a diffusion
      or a compensator entry (None otherwise);
    - scan: the modal accumulations ``z`` of each planned half are
      driven by those rows, the products formed in ``buf`` or, when a
      half is complex, in the complex ``cbuf`` (None otherwise).  These take the rows of ``later``, ``sum_buf`` and
      ``shared``, which are dead once the forcing rows are built;
    - assembly: each output coordinate is summed from ``z`` into ``res``,
      which takes the first drift row (the first stochastic row if there
      is none): the scans have read them by then.

    The squares of the moment and gap sums go to ``buf``: they are taken
    once a coordinate's ``res`` is complete, when ``buf`` is free.  A row
    holds an even number of doubles, so a complex view of rows stays
    aligned; ``n_rows`` is the number of rows.
    """

    def __init__(self, plan: _Plan, paths: int):
        n = plan.noise.n_steps
        size = paths * (n + 1)
        row = size + size % 2
        has_later = any(len(entries) > 1 for _, entries in plan.stoch)
        has_sum_buf = any(
            len(terms) > 1
            for terms in (
                *(f for _, f in plan.drift),
                *(t for _, entries in plan.stoch for t, _ in entries),
            )
        )
        has_shared = bool(plan.stoch)
        # a half's z takes a row per mode, two per complex mode
        z_rows = [half.tri.shape[0] * half.tri.itemsize // 8 for half in plan.halves]
        complex_z = any(np.iscomplexobj(half.tri) for half in plan.halves)
        stoch_rows = sorted({i for i, _ in plan.stoch}.union(plan.zeroed))
        n_forcing = len(plan.drift) + len(stoch_rows)
        forcing_only = has_later + has_sum_buf + has_shared
        scan = sum(z_rows) + 1 + 2 * complex_z
        base = max(n_forcing, 1)
        self.n_rows = base + max(forcing_only, scan)
        arena = np.empty(self.n_rows * row)

        def rows(first: int, shape: tuple, dtype=np.float64) -> np.ndarray:
            """An array over the rows from ``first`` on: its last two axes
            fill one row (a complex one two), a leading axis steps rows."""
            item = np.dtype(dtype).itemsize
            strides = (row * item, shape[-1] * item, item)[-len(shape) :]
            return np.ndarray(shape, dtype, arena, first * row * 8, strides)

        forcing = iter(range(n_forcing))
        self.drift = {i: rows(next(forcing), (paths, n)) for i, _ in plan.drift}
        self.stoch = {i: rows(next(forcing), (paths, n)) for i in stoch_rows}
        built = iter(range(base, self.n_rows))
        self.later = rows(next(built), (paths, n)) if has_later else None
        self.sum_buf = rows(next(built), (paths, n)) if has_sum_buf else None
        self.shared = rows(next(built), (1, n)) if has_shared else None
        self.z, first = [], base
        for half, count in zip(plan.halves, z_rows):
            self.z.append(rows(first, (half.tri.shape[0], paths, n + 1), half.tri.dtype))
            first += count
        self.buf = rows(first, (paths, n + 1))
        self.cbuf = rows(first + 1, (paths, n + 1), complex) if complex_z else None
        self.res = rows(0, (paths, n + 1))


def _term_sum(terms, columns, out: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The summed values of prepared terms, written into ``out``: the
    first term directly, the others through ``buf``."""
    out = term_value(terms[0], columns, out)
    add_terms(out, terms[1:], columns, buf)
    return out


def _draw_block(plan: _Plan, lo: int, hi: int) -> tuple:
    """The noise of paths [lo, hi), a block, drawn now (``plan.noise.paths``):
    its Wiener increments, (paths, n, noise dim), and, per region of
    ``plan.jumps``, its jump events with the region's terms prepared at
    them (``_Jumps``)."""
    sample = plan.noise.paths(lo, hi)
    return sample.dW, tuple(_Jumps(tmap, region, sample) for region, tmap in plan.jumps)


def _block_jumps(plan: _Plan, jumps, values: np.ndarray) -> list:
    """The jump values of a block's events, for each region of ``jumps``
    (the block's ``_Jumps``) that has events in it: the region's events
    and the (events, dim) values of its map at the events' states, read
    from ``values``, the block's (len(plan.reach), paths, n + 1) states,
    into (events, dim) states that are +0.0 outside ``plan.reach``.  Each
    event reads only its own path, so the values of a block are those of
    its chunks."""
    out = []
    for j in jumps:
        if j.path.size:
            states = np.zeros((j.path.size, plan.dim))
            states[:, list(plan.reach)] = values[:, j.path, j.step].T
            out.append((j, point_values(j.terms, states)))
    return out


def _add_jumps(block_jumps: list, stoch: dict, lo: int, hi: int):
    """Add the jumps of the block's paths [lo, hi) to the stochastic rows,
    small jumps first, each event in sample order, from the values that
    ``_block_jumps`` gave for the block that holds the chunk."""
    for jumps, vals in block_jumps:
        a, b = jumps.starts[lo], jumps.starts[hi]
        if a == b:
            continue
        at = (jumps.path[a:b] - lo, jumps.step[a:b])
        for i in jumps.rows:
            np.add.at(stoch[i], at, vals[a:b, i])


def _apply_chunk(
    plan: _Plan,
    values: np.ndarray,
    lo: int,
    hi: int,
    scratch: _Scratch,
    dw: np.ndarray,
    block_jumps,
    zero: bool,
):
    """S applied to paths [lo, hi) of the coordinate-major
    (len(plan.reach), paths, n + 1) array ``values``, the states of the
    block that holds them.  Yields the (paths, n + 1) row of values of
    each output coordinate of ``plan.reach`` in turn, a view of
    ``scratch.res``; S is zero in the other coordinates.  ``values`` is
    only read, in paths [lo, hi) and before the first yield, so the
    caller may write each coordinate back as it comes.  ``dw`` holds the Wiener increments of
    these paths, (paths, n, noise dim), and ``block_jumps`` the jump
    values of the block (``_block_jumps``).  ``zero`` says that
    ``values`` holds +0.0 in these paths: every grid term's value then
    depends on the time alone, so the terms read the first path's states
    and their (1, n) values broadcast over the paths, bit for bit what
    each path's row would be.

    Path-major: every array is (paths, time) with time contiguous.  The
    kernel runs the lists of the plan and decides nothing: the terms read
    the state coordinates as views of ``values``, or as ``plan.zeros``
    outside ``plan.reach``, and fill one drift row
    and one stochastic row per planned coordinate, each stochastic entry
    its value times its factor; the live modes of each half scan their
    planned forcing (``_modal_scan``); and each reached coordinate is
    summed from its planned assembly terms in one contiguous row.
    """
    p = hi - lo
    rows = 1 if zero else p  # the rows of the grid terms' values
    columns = {
        c: plan.zeros if k is None else values[k, lo : lo + rows, :-1] for c, k in plan.coords
    }
    later = None if scratch.later is None else scratch.later[:p]
    sum_buf = None if scratch.sum_buf is None else scratch.sum_buf[:rows]
    drift = {i: _term_sum(f, columns, scratch.drift[i][:rows], sum_buf) for i, f in plan.drift}
    stoch = {}
    for i in plan.zeroed:
        stoch[i] = scratch.stoch[i][:p]
        stoch[i].fill(0.0)
    for i, entries in plan.stoch:
        # the first entry goes to the row itself, later ones through
        # ``later``; a one-row value is formed apart from them, in
        # ``shared``, as a product that overlaps its operand is slow
        s = None
        for terms, j in entries:
            out = scratch.stoch[i][:p] if s is None else later
            g = _term_sum(terms, columns, scratch.shared if zero else out, sum_buf)
            g = np.multiply(g, -plan.noise.h if j is None else dw[:, :, j], out=out)
            s = g if s is None else np.add(s, g, out=s)
        stoch[i] = s
    _add_jumps(block_jumps, stoch, lo, hi)

    buf = scratch.buf[:p]
    cbuf = None if scratch.cbuf is None else scratch.cbuf[:p]
    zs = [z[:, :p] for z in scratch.z]
    for half, modes, z in zip(plan.halves, plan.modes, zs):
        _modal_scan(half, modes, (drift, stoch), z, buf, cbuf)
    res = scratch.res[:p]
    for _, blank, terms in plan.assembly:
        res[:, blank] = 0.0
        for k, (half, at, cols, coef) in enumerate(terms):
            _add_real(res[:, cols], coef, zs[half][at], buf, cbuf, fresh=not k)
        yield res


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> None:
    """acc += rows[0] + rows[1] + ..., added in that order, one row at a
    time; ``rows`` is overwritten.  numpy reduces a C-contiguous block
    over its first axis row by row into ``out``, starting from the first
    row, so the first row takes ``acc`` in first."""
    rows[0] += acc
    np.add.reduce(rows, axis=0, out=acc)


def _sweep_block(
    plan: _Plan, block: np.ndarray, chunks, scratch: _Scratch, drawn: tuple, zero: bool
):
    """Apply S in place to one block of paths, chunk by chunk: ``block``
    holds the block's states, coordinate-major (len(plan.reach), paths,
    n + 1), and
    ``chunks`` are the path ranges of its chunks (``_blocks``), counted
    in the run, so the first starts at the block's first path.  ``drawn``
    is the block's noise (``_draw_block``); ``zero`` as in
    ``_apply_chunk``.  The block's jump values are computed first, from
    the states before the sweep.

    Returns the block's sums over its paths of new^2 and of (new - old)^2,
    shape (len(plan.reach), times), a row per coordinate of
    ``plan.reach``.  Every sum is accumulated one path at a time in path
    order, which is the order in which numpy sums a C-contiguous
    (paths, times * dim) block over its first axis.  Each coordinate of
    a chunk is summed in the scratch before it is written back.
    """
    dw, jumps = drawn
    first = chunks[0][0]
    shape = (len(plan.assembly), block.shape[2])
    moment, gap = np.zeros(shape), np.zeros(shape)
    block_jumps = _block_jumps(plan, jumps, block)
    # squares of overflowing or non-finite states are left to the
    # finiteness check of the caller
    with np.errstate(over="ignore", invalid="ignore"):
        # the in-place ufuncs on (paths, n) views of (paths, n + 1) rows run
        # unbuffered, which numpy's default buffer of 8192 elements denies
        # them below n of about 2730; the caller's size is restored
        bufsize = np.setbufsize(16)
        try:
            for lo, hi in chunks:
                # counted from the block's first path
                lo, hi = lo - first, hi - first
                sq = scratch.buf[: hi - lo]
                chunk = _apply_chunk(plan, block, lo, hi, scratch, dw[lo:hi], block_jumps, zero)
                for k, new in enumerate(chunk):
                    np.multiply(new, new, out=sq)
                    _add_rows(moment[k], sq)
                    if not zero:
                        np.subtract(new, block[k, lo:hi], out=sq)
                        sq *= sq
                        _add_rows(gap[k], sq)
                    block[k, lo:hi] = new
        finally:
            np.setbufsize(bufsize)
    # from the zero ensemble new - 0 is new, which is never -0.0: the gap
    # sums are the moment sums
    return moment, moment if zero else gap


def _blocks(m: int, n: int) -> list[list[tuple[int, int]]]:
    """Path ranges of the chunks of each block of ``BLOCK_PATHS`` paths
    on a grid of ``n`` steps.  A block of b paths is split into
    ceil(b / per_chunk) chunks of near-equal size, so no chunk straddles
    a block.  A chunk holds at most about ``_CHUNK_BUDGET`` path steps
    and at most half a block, so on a short grid a worker's scratch is
    half a block's size."""
    per_chunk = max(1, min(BLOCK_PATHS // 2, _CHUNK_BUDGET // max(n, 1)))
    blocks = []
    for lo in range(0, m, BLOCK_PATHS):
        size = min(BLOCK_PATHS, m - lo)
        count = -(-size // per_chunk)
        edges = [lo + size * k // count for k in range(count + 1)]
        blocks.append(list(zip(edges[:-1], edges[1:])))
    return blocks


def _iterate(
    plan: _Plan,
    out: np.ndarray,
    keep: Optional[np.ndarray],
    tol: float,
    max_iter: int,
    threads: int,
) -> tuple[list, list, tuple]:
    """Picard iterations of S from the zero ensemble, one block of paths
    at a time, writing each block's final states at the grid points
    ``keep`` (increasing, or None for every point) into the
    coordinate-major (len(plan.reach), paths, points) array ``out``.
    Returns the gap trace, one record per iteration, each block's
    (iterations, converged), and the gap and the moment over every path,
    each block at its last iteration: the last record's when every block
    stops at the same count.

    A block draws its noise (``_draw_block``) and is swept
    (``_sweep_block``) until its own gap, sup_t of the mean over its
    paths of |X_k - X_{k-1}|^2, is at most ``tol`` or ``max_iter`` sweeps
    are done; it then writes its kept states and drops its noise.  S
    maps each path to itself, so a block needs nothing from the others.
    If every block ends with its gap at most ``tol``, so does the gap of
    every path that ran the last iteration: sup_t of a weighted mean of
    the blocks' means is at most the largest block's sup.

    The schedule: the blocks run in rounds of one block per worker, of
    ``threads`` workers (fewer if there are fewer blocks), the calling
    thread the first.  It sweeps the round's first block and adds that
    block's sums of each sweep to the iteration's totals as the sweep
    ends, while a pool of the other workers sweeps the round's other
    blocks, each to its end, holding its sums.  Once its own block ends,
    the calling thread adds the other blocks' sums in block order, and
    the next round starts when every block of this one has ended.  So
    the totals are added in block order, the trace is bitwise the same
    for any chunking and worker count, and one round's sums at most are
    alive.  A worker whose block ends early waits for the round.  A
    block that raises ends the solve with its error once its round has
    ended; no later round starts.

    Record k holds the gap and the moment over the paths of the blocks
    that ran k, all paths when every block stops at the same count.  Its
    ``wall_ms`` is the workers' summed time on those blocks' sweeps of
    k, a block's noise draw counted with its first.  A block whose
    moment sums are not all finite is checked exactly: a non-finite
    state raises.

    Block b sweeps in the scratch, the ``_sup_mean`` buffers and, when
    ``keep`` is given, the block states of worker b mod the worker count,
    allocated once per solve; with every point kept, a block is swept in
    place in ``out``.
    """
    noise = plan.noise
    n_times = noise.n_steps + 1
    blocks = _blocks(noise.n_paths, noise.n_steps)
    workers = min(threads, len(blocks))
    largest = max(hi - lo for chunks in blocks for lo, hi in chunks)
    reach = list(plan.reach)
    shape = (len(reach), n_times)
    scratch = [_Scratch(plan, largest) for _ in range(workers)]
    pads = [(np.zeros((n_times, plan.dim)), np.empty(n_times)) for _ in range(workers)]
    states = [
        None if keep is None else np.empty((len(reach), blocks[0][-1][1], n_times))
        for _ in range(workers)
    ]
    totals = []  # per iteration: moment and gap sums, paths and seconds
    final = [np.zeros(shape), np.zeros(shape)]  # each block's last gap and moment sums
    outcome = []

    def sweeps(b: int):
        """Sweep block b from zero states to its stop, in ``out`` or, when
        points are kept, in its worker's states, yielding each sweep's
        (moment sums, gap sums, seconds, converged); write its kept
        states after the last."""
        chunks, worker = blocks[b], b % workers
        lo, hi = chunks[0][0], chunks[-1][1]
        if keep is None:
            block = out[:, lo:hi]
        else:
            block = states[worker][:, : hi - lo]
            block[...] = 0.0
        t0 = time.perf_counter()
        drawn = _draw_block(plan, lo, hi)
        count, converged = 0, False
        while not converged and count < max_iter:
            moment, gap = _sweep_block(plan, block, chunks, scratch[worker], drawn, not count)
            # finite moment sums prove the block's states finite
            if not (np.isfinite(moment).all() or np.isfinite(block).all()):
                raise SolverError("ensemble contains non-finite states")
            t1 = time.perf_counter()
            count += 1
            converged = _sup_mean(gap, hi - lo, reach, *pads[worker]) <= tol
            yield moment, gap, t1 - t0, converged
            t0 = t1
        del drawn
        if keep is not None:
            for rows, kept in zip(block, out[:, lo:hi]):
                # "clip" writes straight into the C-contiguous rows of out
                # (one take over every coordinate would copy through a
                # temporary); keep is in range
                np.take(rows, keep, axis=1, out=kept, mode="clip")

    def add(b: int, sums) -> None:
        """Add block b's sums of each sweep, in order, to that iteration's
        totals, and its last to ``final``; every earlier block's are
        added.  Adding in a function drops its last sums on return."""
        chunks = blocks[b]
        paths = chunks[-1][1] - chunks[0][0]
        for k, (moment, gap, seconds, converged) in enumerate(sums):
            if k == len(totals):
                totals.append([np.zeros(shape), np.zeros(shape), 0, 0.0])
            it = totals[k]
            it[0] += moment
            it[1] += gap
            it[2] += paths
            it[3] += seconds
        final[0] += gap
        final[1] += moment
        outcome.append((k + 1, converged))

    # a pool starts no thread before a block is submitted
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        for first in range(0, len(blocks), workers):
            others = range(first + 1, min(first + workers, len(blocks)))
            futures = [pool.submit(lambda b: list(sweeps(b)), b) for b in others]
            add(first, sweeps(first))
            for b in others:
                # popped, a round's sums are dropped once they are added
                add(b, futures.pop(0).result())
    pad = pads[0]
    trace = [
        {"k": k + 1, "gap": _sup_mean(gap, paths, reach, *pad),
         "sup_second_moment": _sup_mean(moment, paths, reach, *pad), "wall_ms": seconds * 1000.0}
        for k, (moment, gap, paths, seconds) in enumerate(totals)
    ]
    return trace, outcome, [_sup_mean(sums, noise.n_paths, reach, *pad) for sums in final]


def _tail_report(sys: DichotomousSystem, plan: _Plan) -> dict:
    """The truncation report of S: window, steps and tail factor."""
    w, h = plan.w, plan.noise.h
    return {
        "truncation": w * h,
        "truncation_steps": w,
        "omega": float(sys.omega),
        "k": float(sys.k),
        "tail_factor": float(sys.k * np.exp(-sys.omega * w * h) / sys.omega),
    }


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


class PicardResult(
    namedtuple(
        "PicardResult",
        "ensemble gap_trace converged iterations block_iterations final_gap sup_second_moment "
        "tail_report",
    )
):
    """Fixed-point iteration outcome: the final ensemble, the per-iteration
    gap trace (a tuple of dicts: mean-square sup-over-grid distance
    between iterates), whether every block of paths converged, the
    largest and each block's iteration count (a tuple), the gap and the
    sup second moment of the final ensemble over every path (each
    block's last gap) and the truncation tail report (a dict)."""

    __slots__ = ()


def picard_solve(
    sys: DichotomousSystem,
    cs: CoefficientSet,
    noise: NoiseSample,
    w: int,
    tol: float = 1e-10,
    max_iter: int = 60,
    threads: int = 1,
    keep=None,
) -> PicardResult:
    """Iterate the integral operator from the zero ensemble on a frozen
    noise sample (a ``NoiseSample``, or a ``NoiseDraw`` whose paths are
    drawn block by block), each block of ``BLOCK_PATHS`` paths until
    the sup-over-grid mean-square gap between its consecutive iterates
    drops below ``tol``.

    Common random numbers: every iterate reuses the same noise, so the
    geometric contraction is visible directly in the gap trace.  A block
    that hits ``max_iter`` keeps its last iterate, and the result then
    has ``converged=False``.  The truncation horizon is ``w`` whole steps
    (a run's default, 12/omega rounded to the grid, has tail factor
    about 6e-6 of the integrand magnitude): the truncation error of the
    full two-sided window is bounded by ``tail_factor`` times the sup of
    the integrand's mean-square magnitudes.  The result's ensemble holds
    the grid points ``keep``, steps from the window start in increasing
    order, or every point when ``keep`` is None.

    The arguments are those of a validated ``Run`` (``validate_config``):
    the system, the coefficients and the noise share their dimensions,
    ``1 <= w`` with ``2 w`` at most the noise window's steps, ``tol > 0``,
    ``max_iter >= 1`` and ``threads >= 1``.

    One application of S: per output time t the stable part accumulates
    increments over [t - T_c, t] (clipped at the window start) and the
    unstable part over [t, t + T_c] (clipped at the window end).  Drift
    uses the exact one-step kernel (zero quadrature error for constant
    drift); stochastic increments are carried by the one-step propagator.
    Both accumulations are first-order linear recurrences in time.  They
    run in the Schur coordinates of the reduced one-step propagators,
    e^{Bh} on range(P) and e^{-Bh} on range(I - P), where they are
    triangular: each mode is a scalar scan (block-scaled ``cumsum``, see
    ``_scan``) driven by the modes after it.  A window is the difference
    of two accumulations w = T_c / h steps apart.  This one code path
    covers diagonal, rotating and defective generators.

    The work splits into a plan and a kernel.  The plan (``_Plan``) is
    built once per solve, and so are the worker threads and each
    worker's scratch.  It takes every decision about the kernel's
    structure: the window steps; the non-empty coefficient entries with
    their time-only signals on the grid, each stochastic one with its
    noise column (the small-jump compensator's factor, weights folded
    in, is -h); the jump map of each region; the live modes of each half
    with their forcing, couplings and scan powers; and the nonzero
    assembly terms of each output coordinate S reaches.  The kernel
    (``_apply_chunk``) runs those lists path-major on one chunk of
    paths: it fills the forcing rows, scans them into the modal
    accumulations and assembles each output coordinate in one contiguous
    row.  A block's jump terms are prepared at its events when it draws
    them, its jump values evaluated once per sweep, at the states before
    it, and each chunk adds its slice of them.  The first iteration
    sweeps the zero ensemble: there every drift, diffusion and
    compensator term's value depends on the time alone, so each chunk
    evaluates it on one row of states and broadcasts it over its paths,
    with the bits of a per-path evaluation.

    S maps each path to itself, so each block of paths is a sample of
    the fixed point on its own, solved to its own stop, a chunk of paths
    at a time (``_blocks`` sizes the chunks from the grid), in rounds of
    one block on each of ``threads`` workers (``_iterate`` states the
    schedule); a ``NoiseDraw`` draws a block's increments and jump
    events then, a ``NoiseSample`` gives views.  The solve holds the
    kept points of every path and, per worker, one block's states, noise
    and scratch, never the run's noise or, unless every point is kept,
    its ensemble.  Only the coordinates S can reach (``_Plan.reach``) are
    stored: S is zero in the others, and the result's ensemble holds the
    reached ones (``PathEnsemble.coords``).  Every path is computed by
    the same operations in any chunk, and every sum is added in block
    order, so neither the chunk size nor ``threads`` changes the result.  A gap trace record's
    ``wall_ms`` is the workers' summed time on the iteration's blocks.
    """
    plan = _Plan.build(sys, cs, noise, w)
    n_times = noise.n_steps + 1
    if keep is not None:
        keep = np.asarray(keep, dtype=np.intp)
        if keep.ndim != 1 or not keep.size or keep[0] < 0 or keep[-1] >= n_times or (
            np.diff(keep) <= 0
        ).any():
            raise SolverError("keep must be increasing grid points of the noise window")
        if keep.size == n_times:
            keep = None  # every point: the blocks are swept in the result
    values = np.zeros((len(plan.reach), noise.n_paths, n_times if keep is None else keep.size))
    trace, blocks, final = _iterate(plan, values, keep, tol, max_iter, threads)
    return PicardResult(
        ensemble=PathEnsemble(
            h=noise.h, k_lo=noise.k_lo, values=np.moveaxis(values, 0, -1), dim=sys.dim,
            coords=plan.reach, points=keep, n_steps=noise.n_steps,
        ),
        gap_trace=tuple(trace),
        converged=all(converged for _, converged in blocks),
        iterations=len(trace),
        block_iterations=tuple(count for count, _ in blocks),
        final_gap=final[0],
        sup_second_moment=final[1],
        tail_report=_tail_report(sys, plan),
    )
