"""Noise that only the tests compute: a sample re-based by a time shift
of whole steps, which the solver's shift equivariance is checked
against, and the reference layout of the per-path streams (``stream``),
which the sampler's vectorised key derivation and re-keyed generator are
checked against."""

from numbers import Integral

import numpy as np

from levyap.noise import NoiseSample


def stream(seed: int, *key: int) -> np.random.Generator:
    """Open the counter-based generator for a (seed, key...) address."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


class NoiseShiftError(ValueError):
    """Raised when a requested noise shift leaves the sampled window."""


def shifted(sample: NoiseSample, m, window=None) -> NoiseSample:
    """The sample re-based by a time shift of ``m`` whole steps.

    The result represents the increments of ``t -> L(t + s) - L(s)``,
    s = m h: grid values drop by s, Wiener increments keep their order,
    jump events are re-timed by -s.  With ``window`` given as a start
    step and a step count, the result is cropped to it; the requested
    window must lie inside the shifted one.  Event times are kept as
    drawn (``drawn``) and re-based by the total shift in steps
    (``shift``), so shift 0 is the identity and shifting by m and then
    -m restores the input exactly.
    """
    h = sample.h
    if not isinstance(m, Integral):
        raise NoiseShiftError(f"shift of {m} steps is not a multiple of the step {h}")
    k_lo = sample.k_lo - m
    a, b = 0, sample.n_steps
    if window is not None:
        a = window[0] - k_lo
        b = a + window[1]
        if a < 0 or b > sample.n_steps or a >= b:
            raise NoiseShiftError(
                f"window {window} not contained in shifted span "
                f"[{k_lo * h}, {(k_lo + sample.n_steps) * h}]"
            )
    keep = (sample.event_step >= a) & (sample.event_step < b)
    drawn = getattr(sample, "drawn", sample.event_times)[keep]
    shift = getattr(sample, "shift", 0) + m
    out = NoiseSample(
        spec=sample.spec,
        h=h,
        k_lo=k_lo + a,
        n_steps=b - a,
        dW=sample.dW[:, a:b],
        event_path=sample.event_path[keep],
        event_step=sample.event_step[keep] - a,
        event_region=sample.event_region[keep],
        event_marks=sample.event_marks[keep],
        event_times=drawn - shift * h if shift else drawn,
    )
    out.drawn, out.shift = drawn, shift
    return out
