"""The sampled check of a coefficient set's declared Lipschitz constant
(``verify_lipschitz``), which only the tests run: the exact condition
check takes the constant as declared, and this oracle probes it by
sampling squared difference ratios of all four maps, with the mark
laws' second moments in closed form (``second_moment``)."""

from collections import namedtuple

import numpy as np

from levyap.coefficients import (
    CoefficientError,
    CoefficientSet,
    diffusion_terms,
    drift_terms,
    jump_terms,
    point_values,
)
from levyap.noise import LevyProcessSpec, PointMark, UniformIntervalMark

# ``verify_lipschitz`` samples states in [-3, 3]^dim from a fixed seed
# and passes ratios up to 5% above the declared constant
_LIPSCHITZ_BOX = 3.0
_LIPSCHITZ_SEED = 0
_LIPSCHITZ_SLACK = 1.05


def second_moment(marks) -> tuple[tuple[float, ...], ...]:
    """E[X X^T] of a mark law in closed form, as rows of Python floats."""
    if isinstance(marks, PointMark):
        return tuple(tuple(a * b for b in marks.x) for a in marks.x)
    if isinstance(marks, UniformIntervalMark):
        a, b = marks
        return (((a * a + a * b + b * b) / 3.0,),)
    r0, r1, d = marks
    # an annulus mark: |X| is uniform on [r0, r1] and its direction isotropic
    diag = (r0 * r0 + r0 * r1 + r1 * r1) / (3.0 * d)
    return tuple(tuple(diag if i == j else 0.0 for j in range(d)) for i in range(d))


LipschitzReport = namedtuple("LipschitzReport", "declared observed slack passed n_samples")
LipschitzReport.__doc__ = """Empirical Lipschitz check of a coefficient set against its
declared constant: the declared constant, the observed ratio of each
map (a dict), the slack allowed, the verdict and the sample count.
Jump maps are weighted by their intensity mass, matching how the
constant enters the contraction conditions."""


def verify_lipschitz(
    cs: CoefficientSet, spec: LevyProcessSpec, n_samples: int = 2000
) -> LipschitzReport:
    """Sample squared difference ratios of all four maps and compare with
    the declared constant.

    Drift and diffusion are checked as ||map(t,y)-map(t,z)||^2 / ||y-z||^2
    (Frobenius norm for the diffusion).  Jump maps are checked in the
    intensity-weighted form sum_c rate_c E_c ||F(t,y,X)-F(t,z,X)||^2.  The
    difference is affine in the mark, a + B x, with a its value at the zero
    mark and B's columns its values at the unit marks less a, so the mark
    expectation is exact from the mark law's moments:
    |a|^2 + 2 a . B E[X] + tr(B E[X X^T] B^T).  Requires n_samples >= 100.
    """
    if n_samples < 100:
        raise CoefficientError("need at least 100 samples for a meaningful check")
    gen = np.random.default_rng(_LIPSCHITZ_SEED)
    box = _LIPSCHITZ_BOX
    ts = gen.uniform(-50.0, 50.0, size=n_samples)
    ya = gen.uniform(-box, box, size=(n_samples, cs.dim_state))
    yb = gen.uniform(-box, box, size=(n_samples, cs.dim_state))
    dy2 = np.sum((ya - yb) ** 2, axis=1)
    keep = dy2 > 1e-12
    ts, ya, yb, dy2 = ts[keep], ya[keep], yb[keep], dy2[keep]

    drift = drift_terms(cs, ts)
    df = point_values(drift, ya) - point_values(drift, yb)
    ratio_f = float(np.max(np.sum(df**2, axis=1) / dy2))
    columns = zip(*diffusion_terms(cs, ts))
    dg = np.stack([point_values(c, ya) - point_values(c, yb) for c in columns], axis=-1)
    ratio_g = float(np.max(np.sum(dg**2, axis=(1, 2)) / dy2))

    def jump_ratio(tmap, region: str) -> float:
        comps = [c for c in spec.jumps if c.region == region]
        if not comps or all(len(t) == 0 for t in tmap):
            return 0.0

        def diff(x):
            terms = jump_terms(tmap, ts, np.tile(x, (len(ts), 1)))
            return point_values(terms, ya) - point_values(terms, yb)

        a = diff(np.zeros(spec.dim))
        b = np.stack([diff(e) - a for e in np.eye(spec.dim)], axis=-1)
        a2 = np.sum(a**2, axis=1)
        acc = np.zeros(len(ts))
        for comp in comps:
            m, s = np.asarray(comp.marks.mean()), np.array(second_moment(comp.marks))
            cross = np.einsum("ni,nij,j->n", a, b, m)
            spread = np.einsum("nij,jk,nik->n", b, s, b)
            acc += comp.rate * (a2 + 2.0 * cross + spread)
        return float(np.max(acc / dy2))

    observed = {
        "drift": ratio_f,
        "diffusion": ratio_g,
        "jump_small": jump_ratio(cs.jump_small, "small"),
        "jump_large": jump_ratio(cs.jump_large, "large"),
    }
    declared = float(cs.lipschitz)
    passed = all(v <= declared * _LIPSCHITZ_SLACK for v in observed.values())
    return LipschitzReport(
        declared=declared,
        observed=observed,
        slack=_LIPSCHITZ_SLACK,
        passed=passed,
        n_samples=int(np.sum(keep)),
    )

