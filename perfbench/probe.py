#!/usr/bin/env python3
"""Cost curve of ``levyap.apdist.bl_distance`` over dimension, support
size and how close the two clouds are.

    python3 perfbench/probe.py --seed N --budget SECONDS --out OUT.json

For each dimension D in {1, 2, 8} and support size N, two clouds of N
standard normal points are compared: ``same`` pairs each point with a
small perturbation of itself (two laws of one path ensemble at nearby
times), ``indep`` draws the second cloud independently (laws of
independent ensembles).  Each cell reports the median wall time of up to
three calls as ``apdist.bl_ms.d<D>.n<N>.<same|indep>``.  Cells run in
order of support size.  Cells of the smallest size always run; a larger
cell whose cost, extrapolated as N^3 from the same cell at the previous
size, would overrun the budget is skipped, and so is every larger cell
once the budget is spent.  A skipped cell is listed and reads its
extrapolated cost, so that a slower ``bl_distance`` never reads as a
cheaper one.  ``levyap`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

DIMS = (1, 2, 8)
SIZES = (16, 32, 64, 128)
KINDS = ("same", "indep")
_CELL_SECONDS = 0.5  # repeat a call only while the cell stays this cheap


def metric_name(d: int, n: int, kind: str) -> str:
    return f"apdist.bl_ms.d{d}.n{n}.{kind}"


def cells():
    return [(d, n, kind) for n in SIZES for d in DIMS for kind in KINDS]


def run_probe(seed: int, budget: float) -> dict:
    """Time bl_distance on every cell within ``budget`` seconds.  Returns
    ``{"ms": {name: ms}, "skipped": [names]}``, where a skipped cell's ms
    is its extrapolated cost; every cell is skipped, with no ms, when
    levyap has no ``bl_distance``."""
    import numpy as np

    try:
        from levyap.apdist import EmpiricalLaw, bl_distance
    except ImportError:
        return {"ms": {}, "skipped": [metric_name(*c) for c in cells()]}

    result = {"ms": {}, "skipped": []}
    last = {}  # (d, kind) -> (n, seconds per call)
    t_start = time.perf_counter()
    for d, n, kind in cells():
        name = metric_name(d, n, kind)
        if (d, kind) in last:
            prev_n, prev_s = last[(d, kind)]
            estimate = prev_s * (n / prev_n) ** 3
            if time.perf_counter() - t_start + estimate > budget:
                result["skipped"].append(name)
                result["ms"][name] = estimate * 1e3
                last[(d, kind)] = (n, estimate)
                continue
        gen = np.random.default_rng([seed, d, n])
        x = gen.standard_normal((n, d))
        if kind == "same":
            y = x + 0.1 * gen.standard_normal((n, d))
        else:
            y = gen.standard_normal((n, d))
        mu, nu = EmpiricalLaw.from_samples(x), EmpiricalLaw.from_samples(y)
        times = []
        while len(times) < 3 and sum(times) < _CELL_SECONDS:
            t0 = time.perf_counter()
            bl_distance(mu, nu)
            times.append(time.perf_counter() - t0)
        result["ms"][name] = statistics.median(times) * 1e3
        last[(d, kind)] = (n, statistics.median(times))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(run_probe(args.seed, args.budget), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
