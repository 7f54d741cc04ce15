"""Command line entry points for the engine's three parts: the exact
condition check (``check``), the Picard solve of the bounded solution
(``picard``) and the almost-periodicity scan (``apscan``).

Artifacts are plain CSV / JSON / JSONL, written deterministically:
identical config and seed give byte-identical CSV and JSON files across
runs and thread counts (the gap-trace JSONL additionally carries wall
times, the one intentionally non-reproducible field).  Exit codes:
0 = success / verdict true, 1 = verdict false or not converged,
2 = invalid input or an allocation that ran out of memory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import LevyapError, __version__, _lazy_import
from .config import (
    ConfigError,
    Run,
    RunConfig,
    check_conditions,
    config_to_dict,
    load_config,
    parse_number,
    preset_config,
    preset_names,
    validate_config,
)
from .noise import sample_noise

np = _lazy_import("numpy")

# levyap.solver and levyap.apdist are imported by the commands that run
# them, so that ``check``, the start-up of every run, loads neither
if TYPE_CHECKING:
    from .solver import PathEnsemble

__all__ = ["main"]

SCHEMA_VERSION = 1
_CSV_ROW_TARGET = 500_000
# fields (time, path and state values) per block of ensemble.csv rows.
# While a block is written a field takes 46-75 bytes: its share of the
# row matrix, of the NUL mask and of the text (tracemalloc, 1, 2 and 8
# coordinates).  So a block takes 1.5-2.5 MB, 8192 rows of example41,
# beside the formatter's 1.7 MB of work arrays.
_CSV_BLOCK_FIELDS = 32_768
_TIME_BYTES = 24  # the longest repr of a double


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _json_scalar(x):
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            return None
        return x
    return x


def _dump_json(obj) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: Path, obj) -> None:
    path.write_text(_dump_json(obj), encoding="utf-8")


def _write_jsonl(path: Path, records) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, allow_nan=False))
            fh.write("\n")


def _csv_stride(n_steps: int, n_paths: int, configured: Optional[int]) -> int:
    if configured is not None:
        return configured
    rows = (n_steps + 1) * n_paths
    return max(1, int(math.ceil(rows / _CSV_ROW_TARGET)))


def _write_ensemble_csv(path: Path, ens: PathEnsemble, stride: int) -> None:
    """Rows (t, path, y0..y{d-1}) in time-major order, every ``stride``-th
    grid point; every float is written as its ``repr``.

    Works on blocks of grid points of at most ``_CSV_BLOCK_FIELDS``
    fields (one grid point at least) in one matrix of 64-bit words, a row
    per (grid point, path), reused from block to block.  A row holds the
    time's repr (one ``repr`` per grid point), the path index (built
    once) and, per state coordinate, the 32-byte field that
    ``_floatfmt.ReprFormatter`` fills with the value's repr and its
    separator, formatting a whole column with numpy integer arithmetic
    and no Python code per value.  Every byte that is not text is NUL, so
    a block is written as its matrix with the NUL bytes removed.  A
    coordinate that is +0.0 throughout (bit pattern all zero) takes one
    word, ``0.0`` and its separator, written once; example41's first
    coordinate is one.
    """
    from ._floatfmt import ReprFormatter

    m, d = ens.n_paths, ens.dim
    written = ens.values[:, ::stride, :]
    n_points = written.shape[1]
    per_block = min(max(1, _CSV_BLOCK_FIELDS // (m * (d + 2))), n_points)
    ends = b"," * (d - 1) + b"\n"
    zero = [not written[:, :, i].view(np.uint64).any() for i in range(d)]
    runs = []  # [first, stop) of each run of adjacent formatted coordinates
    for i in range(d):
        if zero[i]:
            continue
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    # a row starts with the time and a comma, ending at byte 24, then the
    # path and a comma, with no NUL between: the mask removes a run of NUL
    # bytes at a time, so the fewer runs the faster
    width = len(str(m - 1)) + 1
    lead = -(-(_TIME_BYTES + 1 + width) // 8)  # words of time, path and commas
    offsets = np.cumsum([lead] + [1 if z else 4 for z in zero]).tolist()
    rows = np.zeros((per_block * m, offsets[-1]), dtype="<u8")
    text = rows.view(np.uint8).reshape(per_block, m, -1)
    paths = np.array([f"{p}," for p in range(m)], dtype=f"S{width}")
    text[:, :, _TIME_BYTES + 1 : _TIME_BYTES + 1 + width] = paths.view(np.uint8).reshape(m, width)
    for i in np.flatnonzero(zero).tolist():
        rows[:, offsets[i]] = np.frombuffer((b"0.0" + ends[i : i + 1]).ljust(8, b"\0"), dtype="<u8")
    fmt = ReprFormatter()
    with open(path, "wb") as fh:
        fh.write(("t,path," + ",".join(f"y{i}" for i in range(d)) + "\n").encode())
        for lo in range(0, n_points, per_block):
            block = written[:, lo : lo + per_block]
            k = block.shape[1]
            n = k * m
            # the grid's own expression, so each time rounds as in ``grid``
            times = (ens.k_lo + stride * np.arange(lo, lo + k)) * ens.h
            t_text = [f"{t!r},".rjust(_TIME_BYTES + 1, "\0") for t in times.tolist()]
            t_bytes = np.array(t_text, dtype=f"S{_TIME_BYTES + 1}").view(np.uint8)
            text[:k, :, : _TIME_BYTES + 1] = t_bytes.reshape(k, 1, _TIME_BYTES + 1)
            for a, b in runs:
                fmt(
                    block[:, :, a:b].transpose(1, 0, 2).reshape(n, b - a),
                    out=rows[:n, offsets[a] : offsets[b]].reshape(n, b - a, 4),
                    ends=ends[a:b],
                )
            flat = rows[:n].view(np.uint8).reshape(-1)
            fh.write(flat[flat != 0])


def _strip_wall(records):
    return [{k: v for k, v in rec.items() if k != "wall_ms"} for rec in records]


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _condition_report(run: Run, out: Path):
    """Check the run's conditions exactly, write condition_report.json
    and print the report; return it.  The report is every command's
    first artifact, so this creates ``out``: a run rejected before it
    leaves no directory behind."""
    rep = check_conditions(*run.conditions)
    d = rep.as_dict()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "condition_report.json", {"schema_version": SCHEMA_VERSION, **d})
    for line in (
        f"K = {d['k']}, omega = {d['omega']}, L = {d['lipschitz']}, b = {d['jump_bound']}",
        f"lhs (1+2b)/omega^2 + 2/omega          = {d['lhs']}",
        f"threshold existence    1/(16 K^2 L)   = {d['threshold_existence']}",
        f"threshold distribution 1/(32 K^2 L)   = {d['threshold_distribution']}",
        f"eta = {d['eta']} (= {d['eta_float']:.6g}); contraction: "
        + ("yes" if rep.eta_below_one else "no"),
        "existence verdict:    " + ("PASS" if rep.verdict_existence else "FAIL"),
        "distribution verdict: " + ("PASS" if rep.verdict_distribution else "FAIL"),
    ):
        print(line)
    return rep


def _run_picard(run: Run, out: Path, threads: int):
    """Condition check + solve on ``threads`` workers; writes the shared
    picard artifacts and returns (result, exit_code)."""
    from .solver import picard_solve

    rep = _condition_report(run, out)
    if not rep.verdict_existence:
        print(
            "warning: existence conditions fail; iterating anyway "
            "(results may not certify a bounded solution)",
            file=sys.stderr,
        )

    cfg = run.config
    num = cfg.numerics
    # the noise sample is held by the solve alone, so it is freed when
    # the solve returns, before the ensemble is written
    res = picard_solve(
        run.system,
        run.coefficients,
        sample_noise(
            run.spec, run.k_lo, run.n, float(num.h), num.n_paths, cfg.seed, threads=threads
        ),
        tol=float(num.tol),
        max_iter=num.max_iter,
        w=run.w,
        threads=threads,
    )
    _write_jsonl(out / "gap_trace.jsonl", res.gap_trace)
    ens = res.ensemble
    stride = _csv_stride(ens.n_steps, ens.n_paths, num.csv_stride)
    _write_ensemble_csv(out / "ensemble.csv", ens, stride)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": config_to_dict(cfg),
        "converged": res.converged,
        "iterations": res.iterations,
        "final_gap": _json_scalar(res.gap_trace[-1]["gap"]),
        "sup_second_moment": _json_scalar(res.gap_trace[-1]["sup_second_moment"]),
        "tail_report": {k: _json_scalar(v) for k, v in res.tail_report.items()},
        "csv_stride": stride,
        "gap_trace": _strip_wall(res.gap_trace),
    }
    _write_json(out / "run_meta.json", meta)
    print(
        f"picard: {'converged' if res.converged else 'NOT converged'} "
        f"after {res.iterations} iterations, final gap "
        f"{res.gap_trace[-1]['gap']:.3e}, sup second moment "
        f"{res.gap_trace[-1]['sup_second_moment']:.6g}"
    )
    print(f"artifacts written to {out}")
    code = 0 if (res.converged and rep.verdict_existence) else 1
    return res, code


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(run: Run, out: Path, threads: int) -> int:
    return 0 if _condition_report(run, out).verdict_existence else 1


def cmd_picard(run: Run, out: Path, threads: int) -> int:
    _, code = _run_picard(run, out, threads)
    return code


def cmd_apscan(run: Run, out: Path, threads: int) -> int:
    from .apdist import ap_distribution_scan

    cfg = run.config
    ana = cfg.analysis
    if not ana.shifts:
        raise ConfigError("apscan needs analysis.times and analysis.shifts")
    res, code = _run_picard(run, out, threads)
    scan = ap_distribution_scan(
        res.ensemble,
        [i - run.k_lo for i in run.times],
        run.shifts,
        float(ana.epsilon),
        n_support=ana.law_support,
        seed=cfg.seed,
    )
    report = {"schema_version": SCHEMA_VERSION, **scan.as_dict()}
    _write_json(out / "apscan_report.json", report)
    for entry in report["shifts"]:
        mark = "ACCEPT" if entry["accepted"] else "reject"
        print(f"shift {entry['s']:>12.6g}  sup beta {entry['sup_beta']:.6g}  {mark}")
    print(f"accepted {report['accepted_count']}/{len(scan.shifts)}, max gap {scan.max_gap:.6g}")
    return code


_COMMANDS = {
    "check": cmd_check,
    "picard": cmd_picard,
    "apscan": cmd_apscan,
}


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _num_arg(text: str):
    try:
        return Fraction(text) if "/" in text else float(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or a 'p/q' rational, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyap",
        description=(
            "Simulate and certify bounded mild solutions of semilinear "
            "SDEs with dichotomous linear part and two-sided Levy noise."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "evaluate the contraction conditions exactly"),
        ("picard", "iterate the bounded-solution operator to its fixed point"),
        ("apscan", "picard + almost-periodicity-in-distribution scan"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON run configuration")
        p.add_argument(
            "--preset",
            help=f"named built-in configuration: {', '.join(preset_names())}",
        )
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--paths", type=int, help="override the path count")
        p.add_argument("--out", type=Path, default=Path("levyap_out"),
                       help="artifact directory (default: levyap_out)")
        p.add_argument("--dt", type=_num_arg, help="override the step h")
        p.add_argument("--max-iter", type=int, help="override the iteration cap")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads over path chunks in noise sampling "
                            "and the Picard solve (default: 1); results are "
                            "identical for any value")
    return parser


def _resolve_config(args) -> RunConfig:
    if args.config is not None and args.preset is not None:
        raise ConfigError("give either --config or --preset, not both")
    if args.config is not None:
        cfg = load_config(args.config)
    elif args.preset is not None:
        cfg = preset_config(args.preset)
    else:
        raise ConfigError("a configuration is required: --config PATH or --preset NAME")

    num = cfg.numerics
    num_updates = {}
    if args.paths is not None:
        num_updates["n_paths"] = args.paths
    if args.dt is not None:
        num_updates["h"] = parse_number(args.dt, "numerics.h")
    if args.max_iter is not None:
        num_updates["max_iter"] = args.max_iter
    if num_updates:
        cfg = cfg._replace(numerics=num._replace(**num_updates))
    if args.seed is not None:
        cfg = cfg._replace(seed=args.seed)
    return cfg


def _single_threaded_blas() -> None:
    """Start OpenBLAS, numpy's and scipy's, with no thread pool unless
    the caller set ``OPENBLAS_NUM_THREADS``.  The engine's matrices are
    at most 8 x 8 and its parallelism is its ``--threads`` workers; an
    idle BLAS pool only spins, about 0.15 s of CPU a run on two cores.
    Must run before numpy loads, which ``_lazy_import`` puts off until a
    command first uses it."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main(argv: Optional[list[str]] = None) -> int:
    _single_threaded_blas()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        run = validate_config(_resolve_config(args))
        return _COMMANDS[args.command](run, args.out, args.threads)
    except (LevyapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation: its size, shape and data type
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
