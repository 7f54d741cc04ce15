#!/usr/bin/env python3
"""Stage times of a levyap command, run in process.

    python3 scripts/stage_times.py [--runs N] -- <levyap argv>

Runs ``levyap.cli.main(argv)`` N times in this process, each run writing
its artifacts to a fresh temporary directory (an ``--out`` in the argv
is overridden), and times four stages by wrapping them where the CLI
and its commands look them up: ``sample_noise`` in ``levyap.noise``,
which ``NoiseDraw.paths`` calls once for each block of paths that the
Picard workers draw, increments and jump events; ``picard_solve`` in
``levyap.solver``,
``_write_ensemble_csv`` in ``levyap.cli`` and ``ap_distribution_scan``
in ``levyap.apdist``.  The library code is not changed.  Before numpy
loads, the script applies the CLI's process defaults
(``levyap.cli._process_defaults``: one OpenBLAS thread unless
``OPENBLAS_NUM_THREADS`` is set), so its runs spend CPU and hold memory
as CLI runs do, and its ``vm_hwm_mb`` per stage is what a CLI run
holds.

Prints one JSON object: per stage the median over the runs of its wall
seconds in a run (0 for a stage the command never reaches), of its
process CPU seconds (``time.process_time``: every thread of the
process, the ``--threads`` workers included) and its calls per run;
the medians of ``main``'s own wall and CPU seconds, the exit codes, and
per Picard iteration the median ``wall_ms`` of ``gap_trace.jsonl``.
The block draws run inside ``picard_solve``, whose seconds include
them, on its worker threads: with more than one thread their calls
overlap, and their summed seconds can exceed the time they took.
The first run also imports and compiles what the command loads; the
medians leave it out once N is 3 or more.

Per stage it also reports ``vm_hwm_mb``: the process's ``VmHWM`` from
``/proc/self/status`` in MB (1024 kB) right after the stage's last call
in the first run, null where there is no ``/proc`` or the command never
reaches the stage.  VmHWM is the peak resident set so far, so the value
only rises from stage to stage; a stage that raises it held more at its
peak than anything before it.
"""

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

try:
    import levyap.cli
except ImportError:  # running from a source checkout without installation
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import levyap.cli

# levyap.cli loads numpy only when a command first uses it; the solver
# and the scan load it on import
levyap.cli._process_defaults()
import levyap.apdist  # noqa: E402
import levyap.noise  # noqa: E402
import levyap.solver  # noqa: E402

# (stage, module that the call looks the name up in, name)
STAGES = (
    ("sample_noise", levyap.noise, "sample_noise"),
    ("picard_solve", levyap.solver, "picard_solve"),
    ("_write_ensemble_csv", levyap.cli, "_write_ensemble_csv"),
    ("ap_distribution_scan", levyap.apdist, "ap_distribution_scan"),
)


def vm_hwm_mb():
    """The process's peak resident set so far (``VmHWM``) in MB, or None
    where there is no ``/proc``."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def timed(fn, record: list):
    """``fn``, appending the wall and process CPU seconds of each call,
    and the ``vm_hwm_mb`` after it, to ``record``."""

    def wrapper(*args, **kwargs):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            record.append(
                (time.perf_counter() - t0, time.process_time() - c0, vm_hwm_mb())
            )

    return wrapper


def run_once(argv: list, out: Path) -> dict:
    """One run of ``main`` with the stages wrapped; its stdout and stderr
    are discarded.  Returns the run's exit code, stage calls and times,
    and the ``wall_ms`` of each Picard iteration."""
    spans = {stage: [] for stage, _, _ in STAGES}
    originals = [(module, name, getattr(module, name)) for _, module, name in STAGES]
    for (stage, _, _), (module, name, fn) in zip(STAGES, originals):
        setattr(module, name, timed(fn, spans[stage]))
    try:
        sink = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = levyap.cli.main([*argv, "--out", str(out)])
        main_s, main_cpu_s = time.perf_counter() - t0, time.process_time() - c0
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    trace = out / "gap_trace.jsonl"
    wall_ms = (
        [json.loads(line)["wall_ms"] for line in trace.read_text().splitlines()]
        if trace.exists()
        else []
    )
    return {"code": code, "main_s": main_s, "main_cpu_s": main_cpu_s, "spans": spans,
            "wall_ms": wall_ms}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs of the command (default 5)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- levyap argv")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv or args.runs < 1:
        parser.error("give --runs >= 1 and a levyap argv after --")
    with tempfile.TemporaryDirectory() as tmp:
        runs = [run_once(argv, Path(tmp) / f"run{i}") for i in range(args.runs)]
    iterations = max(len(r["wall_ms"]) for r in runs)
    report = {
        "argv": argv,
        "runs": args.runs,
        "exit_codes": [r["code"] for r in runs],
        "main_s": statistics.median(r["main_s"] for r in runs),
        "main_cpu_s": statistics.median(r["main_cpu_s"] for r in runs),
        "stages": {
            stage: {
                "median_s": statistics.median(
                    sum(w for w, _, _ in r["spans"][stage]) for r in runs
                ),
                "median_cpu_s": statistics.median(
                    sum(c for _, c, _ in r["spans"][stage]) for r in runs
                ),
                "calls": statistics.median(len(r["spans"][stage]) for r in runs),
                "vm_hwm_mb": runs[0]["spans"][stage][-1][2] if runs[0]["spans"][stage] else None,
            }
            for stage, _, _ in STAGES
        },
        "iteration_wall_ms": [
            statistics.median(r["wall_ms"][k] for r in runs if k < len(r["wall_ms"]))
            for k in range(iterations)
        ],
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
