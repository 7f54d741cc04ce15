#!/usr/bin/env python3
"""Traced in-process run of the levyap CLI.

    python3 perfbench/trace.py --spans OUT.json -- <levyap argv>

Wraps each layer's entry points where their callers look them up, runs
``levyap.cli.main(argv)`` in this process and writes the recorded spans
and the per-layer metrics derived from them to OUT.json.  Spans are kept
in memory until the run ends.  An entry point that no longer exists marks
its layer as absent; the run goes on without it.  The exit code is the
CLI's.

``levyap`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time

# (layer, module, attribute, span name): the attribute is looked up in the
# module that calls it, so the wrapper sees every call the CLI makes.
ENTRY_POINTS = (
    ("config", "levyap.cli", "validate_config", "config.validate"),
    ("noise", "levyap.solver", "sample_noise", "noise.sample"),
    ("coefficients", "levyap.solver", "eval_drift", "coefficients.eval"),
    ("coefficients", "levyap.solver", "eval_diffusion", "coefficients.eval"),
    ("coefficients", "levyap.solver", "eval_jump_small", "coefficients.eval"),
    ("coefficients", "levyap.solver", "eval_jump_large", "coefficients.eval"),
    ("coefficients", "levyap.solver", "small_jump_compensator", "coefficients.eval"),
    ("solver", "levyap.cli", "picard_solve", "solver.picard"),
    ("solver", "levyap.solver", "apply_S", "solver.apply_S"),
    ("apdist", "levyap.cli", "law_trajectory", "apdist.law_trajectory"),
    ("apdist", "levyap.cli", "ap_distribution_scan", "apdist.scan"),
    ("apdist", "levyap.apdist", "bl_distance", "apdist.bl"),
    ("simplex", "levyap.apdist", "simplex_maximize", "simplex.solve"),
    ("cli", "levyap.cli", "_write_ensemble_csv", "cli.csv_write"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))

# per-layer metrics of one traced run, in report order, with units
PER_LAYER = (
    ("noise.sample_s", "s"),
    ("noise.jump_events", "count"),
    ("noise.dw_mb", "MB"),
    ("coefficients.eval_s", "s"),
    ("coefficients.eval_calls", "count"),
    ("solver.picard_s", "s"),
    ("solver.picard_iters", "count"),
    ("solver.apply_S_calls", "count"),
    ("solver.apply_S_s", "s"),
    ("solver.apply_S_self_s", "s"),
    ("solver.path_steps_per_s", "1/s"),
    ("apdist.law_trajectory_s", "s"),
    ("apdist.scan_s", "s"),
    ("apdist.bl_calls", "count"),
    ("apdist.bl_s", "s"),
    ("apdist.bl_ms_p50", "ms"),
    ("apdist.bl_ms_tail", "ms"),
    ("apdist.bl_ms_tail_pct", "%"),
    ("apdist.merged_support_mean", "count"),
    ("apdist.solves_per_distance", "ratio"),
    ("simplex.solves", "count"),
    ("simplex.pivots", "count"),
    ("simplex.s", "s"),
    ("cli.csv_write_s", "s"),
    ("cli.csv_rows", "count"),
    ("cli.csv_mb", "MB"),
    ("config.validate_s", "s"),
    ("trace.absent_layers", "count"),
)


# ---------------------------------------------------------------------------
# attributes recorded at the layer boundaries
# ---------------------------------------------------------------------------


def _noise_attrs(args, kwargs, result):
    return {
        "jump_events": sum(len(r.jump_times_base) for r in result),
        "dw_bytes": sum(r.dW.nbytes for r in result),
    }


def _picard_attrs(args, kwargs, result):
    return {"iterations": result.iterations}


def _apply_attrs(args, kwargs, result):
    ens = result[0]
    return {"path_steps": ens.n_paths * ens.n_steps}


def _bl_before(args, kwargs):
    # distinct points of the union of both supports: the LP's size
    points = {tuple(p) for law in args[:2] for p in law.points.tolist()}
    return {"merged_support": len(points)}


def _simplex_attrs(args, kwargs, result):
    return {"pivots": result.iterations}


def _csv_attrs(args, kwargs, result):
    path, ens, stride = args[:3]
    return {
        "rows": len(range(0, ens.n_steps + 1, stride)) * ens.n_paths,
        "bytes": os.path.getsize(path),
    }


_BEFORE = {"apdist.bl": _bl_before}
_AFTER = {
    "noise.sample": _noise_attrs,
    "solver.picard": _picard_attrs,
    "solver.apply_S": _apply_attrs,
    "simplex.solve": _simplex_attrs,
    "cli.csv_write": _csv_attrs,
}


def _attrs(hook, *args):
    """Run an attribute hook; a layer whose data no longer has the shape
    the hook expects loses that attribute, not the run."""
    if hook is None:
        return {}
    try:
        return hook(*args)
    except (AttributeError, TypeError, IndexError, ValueError, OSError):
        return {}


# ---------------------------------------------------------------------------
# span recording
# ---------------------------------------------------------------------------


class Tracer:
    """Records spans (id, name, parent, start, end, attrs) in memory.

    The traced program is single-threaded, so the innermost open span is
    the parent of the next one.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.missing: list[str] = []

    def span(self, name, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        attrs = _attrs(_BEFORE.get(name), args, kwargs)
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
        attrs.update(_attrs(_AFTER.get(name), args, kwargs, result))
        return result

    def wrap(self, module_name: str, attr: str, name: str) -> bool:
        """Replace ``module.attr`` with a spanning wrapper; False, and the
        entry point noted as missing, when it does not exist."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module_name}.{attr}")
            return False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        setattr(module, attr, wrapper)
        return True


def install(tracer: Tracer, entry_points=ENTRY_POINTS) -> list[str]:
    """Wrap every entry point; return the layers with none left."""
    present = set()
    for layer, module_name, attr, name in entry_points:
        if tracer.wrap(module_name, attr, name):
            present.add(layer)
    return sorted({ep[0] for ep in entry_points} - present)


# ---------------------------------------------------------------------------
# span arithmetic and per-layer metrics
# ---------------------------------------------------------------------------


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] covered by the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of that
    interval its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(s["start"], s["end"], children.get(s["id"], ()))
        for s in spans
    }


def _nearest_rank(sorted_values: list[float], pct: int) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it by the
    nearest-rank rule; 0 when there are too few samples for any."""
    for pct in range(99, 0, -1):
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct
    return 0


def layer_metrics(spans: list[dict], absent_layers: list[str]) -> dict[str, float]:
    """The PER_LAYER metrics (except the probe's) from one run's spans.
    A layer that was never called, or is absent, reads 0."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    apply_s = total("solver.apply_S")
    bl_ms = sorted((s["end"] - s["start"]) * 1e3 for s in by_name.get("apdist.bl", ()))
    tail_pct = tail_percentile(len(bl_ms))
    bl_calls = count("apdist.bl")
    return {
        "noise.sample_s": total("noise.sample"),
        "noise.jump_events": attr_sum("noise.sample", "jump_events"),
        "noise.dw_mb": attr_sum("noise.sample", "dw_bytes") / 1e6,
        "coefficients.eval_s": total("coefficients.eval"),
        "coefficients.eval_calls": count("coefficients.eval"),
        "solver.picard_s": total("solver.picard"),
        "solver.picard_iters": attr_sum("solver.picard", "iterations"),
        "solver.apply_S_calls": count("solver.apply_S"),
        "solver.apply_S_s": apply_s,
        "solver.apply_S_self_s": sum(
            selfs[s["id"]] for s in by_name.get("solver.apply_S", ())
        ),
        "solver.path_steps_per_s": (
            attr_sum("solver.apply_S", "path_steps") / apply_s if apply_s > 0 else 0.0
        ),
        "apdist.law_trajectory_s": total("apdist.law_trajectory"),
        "apdist.scan_s": total("apdist.scan"),
        "apdist.bl_calls": bl_calls,
        "apdist.bl_s": total("apdist.bl"),
        "apdist.bl_ms_p50": _nearest_rank(bl_ms, 50) if bl_ms else 0.0,
        "apdist.bl_ms_tail": _nearest_rank(bl_ms, tail_pct) if tail_pct else 0.0,
        "apdist.bl_ms_tail_pct": tail_pct,
        "apdist.merged_support_mean": (
            attr_sum("apdist.bl", "merged_support") / bl_calls if bl_calls else 0.0
        ),
        "apdist.solves_per_distance": (
            count("simplex.solve") / bl_calls if bl_calls else 0.0
        ),
        "simplex.solves": count("simplex.solve"),
        "simplex.pivots": attr_sum("simplex.solve", "pivots"),
        "simplex.s": total("simplex.solve"),
        "cli.csv_write_s": total("cli.csv_write"),
        "cli.csv_rows": attr_sum("cli.csv_write", "rows"),
        "cli.csv_mb": attr_sum("cli.csv_write", "bytes") / 1e6,
        "config.validate_s": total("config.validate"),
        "trace.absent_layers": len(absent_layers),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON file")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- levyap argv")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    absent = install(tracer)
    import levyap.cli

    code = tracer.span("cli.main", levyap.cli.main, (argv,))
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "absent_layers": absent,
                "missing_entry_points": tracer.missing,
                "metrics": layer_metrics(tracer.spans, absent),
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
