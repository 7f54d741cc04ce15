#!/usr/bin/env python3
"""Benchmark of the levyap CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The program under test is the checkout's own ``src/levyap``, started as
``python3 -m levyap.cli``.  The benchmark is a closed loop with one
client: one CLI process at a time, each started when the previous one has
ended, each given ``--threads`` equal to the number of usable cores.
Outputs are bitwise identical for any thread count.

``--trace 0`` runs the workload command until ``--seconds`` have passed
and at least the workload's number of runs is done; run i uses seed
``N + i * SEED_STRIDE``.  A run that cannot do all of the workload's
seeds before its time limit counts a failed run.  Set-up runs
(``levyap check`` with the workload's arguments) are interleaved with
them: one warms the file cache, then one goes before each workload run
and the rest after the last, SETUP_REPEATS in all.  It reports wall_s,
cpu_s and peak_rss_mb (each taken from that one child process with
``os.wait4``) as means over the runs, which differ in seed on purpose,
and setup_s as the median of the identical set-up runs.

``--trace 1`` runs the command once untraced and once in-process under
``perfbench/trace.py`` with the same argv, then the ``bl_distance`` probe
(``perfbench/probe.py``).  It reports the per-layer metrics and the
tracing overhead, traced minus untraced wall time.

Every run's artifacts are checked (``perfbench/checks.py``); a nonzero
exit or a failed check counts as a failed run.  Lines on standard output
name each metric with its unit, the machine and the problem sizes; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  The full record of the run goes to
``.perfbench_work/<workload>/report-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import probe  # noqa: E402
import trace  # noqa: E402

DEFAULT_SEED = 41  # example41's own seed; reference.json is recorded at it
SEED_STRIDE = 1000
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0  # a benchmark run must end within 180 s
SETUP_RESERVE_S = 15.0  # kept for the set-up runs after the last workload run
PROBE_BUDGET_S = 25.0
THREADS = len(os.sched_getaffinity(0))

# Workloads.  The shipped example41 scan (26 distances between 64-point
# laws) takes 60-80 s, and its time and peak memory swing by 15-40% with
# the seed: the laws at all scan times are drawn from one subsample of
# paths, so one seed's LPs are all easy or all hard.  With 24-point laws a
# scan takes about 10 s, two thirds of it in the LP; nine seeds a run
# average out the seed and the short-term speed changes of a shared
# 2-core machine (about 12% between 10 s windows of pure Python).
WORKLOADS = {
    "apscan-ex41": {
        "command": "apscan",
        "config": {
            "preset": "example41",
            "analysis": {
                "epsilon": 0.25,
                "shifts": ["1/4", "1/2", "3/4", 1],
                "times": [0, "1/4", "1/2", "3/4", 1],
                "law_support": 24,
            },
        },
        "args": [],
        "runs": 9,
    },
    "picard-ex41-fine": {
        "command": "picard",
        "config": None,
        "args": ["--preset", "example41", "--dt", "1/1024", "--paths", "1024"],
        "runs": 1,
    },
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    trace.PER_LAYER
    + tuple((probe.metric_name(*cell), "ms") for cell in probe.cells())
    + (
        ("apdist.bl_probe_skipped", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    )
)
# layer times compared to name the layer that took the most time
LAYER_TIMES = (
    "config.validate_s",
    "noise.sample_s",
    "coefficients.eval_s",
    "solver.apply_S_s",
    "apdist.law_trajectory_s",
    "apdist.bl_s",
    "simplex.s",
    "cli.csv_write_s",
)


def code_version() -> str:
    """Digest of the program under test: every ``src/**/*.py`` file by
    path and content, and the Python, numpy and scipy versions."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    host = machine()
    h.update(json.dumps([host["python"], host["numpy"], host["scipy"]]).encode())
    return h.hexdigest()


class Bench:
    """State of one benchmark run: its deadline, work directory, records
    of every process started, and the digests of earlier runs."""

    def __init__(self, name: str, workload: dict, seed: int):
        self.name = name
        self.wl = workload
        self.seed = seed
        self.t_start = time.perf_counter()
        self.dir = WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.records: list[dict] = []
        self.setup_digest = None
        self.state_path = WORK / "digests.json"
        self.code = code_version()
        ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        self.ref_seed = ref["seed"]
        self.ref = ref["workloads"].get(name, {})
        self.args = list(workload["args"])
        if workload["config"] is not None:
            cfg_path = self.dir / "config.json"
            cfg_path.write_text(json.dumps(workload["config"], indent=1), encoding="utf-8")
            self.args = ["--config", str(cfg_path)] + self.args

    # -- processes --------------------------------------------------------

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.t_start)

    def spawn(self, cmd: list[str], log: Path) -> dict:
        """Run one child to completion, killed when the run's time is up.
        Wall time is taken around the child; CPU time and peak RSS come
        from that child's own rusage."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        lock = threading.Lock()
        reaped = False
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)

            def kill():
                with lock:
                    if not reaped:
                        proc.kill()

            timer = threading.Timer(max(self.remaining(), 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                with lock:
                    reaped = True
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode,
        }

    def cli(self, command: str, seed: int, out: Path, kind: str, spans: Path | None = None):
        """One CLI run (traced when ``spans`` is given) with its checks."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = [command, *self.args, "--seed", str(seed), "--threads", str(THREADS),
                "--out", str(out)]
        if spans is None:
            cmd = [sys.executable, "-m", "levyap.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "trace.py"), "--spans", str(spans), "--", *argv]
        rec = {"kind": kind, "seed": seed, "argv": argv, **self.spawn(cmd, out / "stdout.log")}
        problems = [] if rec["exit_code"] == 0 else [f"exit code {rec['exit_code']}"]
        at_ref = self.ref.get("at_seed") if seed == self.ref_seed else None
        problems += checks.check_run(out, command, at_ref, self.ref.get("condition_report"))
        rec["digests"] = checks.digests(out)
        rec["problems"] = problems
        self.records.append(rec)
        return rec

    def check_repeat(self, rec: dict) -> None:
        """Artifacts of the same code, argv and seed must not change
        between runs in this checkout, apart from the gap trace's wall
        times.  Runs of other code are not compared: a correct change may
        change floating-point bits."""
        state = json.loads(self.state_path.read_text()) if self.state_path.exists() else {}
        key = hashlib.sha256(
            json.dumps([self.code, self.wl, rec["argv"][:-2], rec["seed"]],
                       sort_keys=True).encode()
        ).hexdigest()
        seen = state.get(key)
        if seen is not None and seen != rec["digests"]:
            changed = sorted(k for k in set(seen) | set(rec["digests"])
                             if seen.get(k) != rec["digests"].get(k))
            rec["problems"].append(f"artifacts differ from an earlier run: {changed}")
        elif seen is None and not rec["problems"]:
            state[key] = rec["digests"]
            self.state_path.write_text(json.dumps(state, indent=1))

    # -- phases -----------------------------------------------------------

    def setup(self) -> float:
        """One set-up run; its condition report must equal the first one's."""
        rec = self.cli("check", self.seed, self.dir / "setup", "setup")
        digest = rec["digests"].get("condition_report.json")
        self.setup_digest = self.setup_digest or digest
        if digest != self.setup_digest:
            rec["problems"].append("condition_report.json changed between setup runs")
        return rec["wall_s"]

    def workload_runs(self, seconds: float) -> tuple[list[dict], list[float]]:
        """Workload runs over seeds N, N + SEED_STRIDE, ..., and set-up wall
        times.  The machine's speed drifts over minutes, so the set-up runs
        are spread over the same stretch of time as the workload runs.
        When the time limit leaves fewer than the workload's runs, the
        means would be over other seeds than usual, so the shortfall is a
        failed run."""
        self.setup()  # warms the file cache; not counted
        runs, setup = [], []
        while True:
            if len(setup) < SETUP_REPEATS:
                setup.append(self.setup())
            seed = self.seed + len(runs) * SEED_STRIDE
            rec = self.cli(self.wl["command"], seed, self.dir / "out", "run")
            self.check_repeat(rec)
            runs.append(rec)
            elapsed = time.perf_counter() - self.t_start
            if len(runs) >= self.wl["runs"] and elapsed >= seconds:
                break
            if rec["wall_s"] * 1.2 + SETUP_RESERVE_S > self.remaining():
                if len(runs) < self.wl["runs"]:
                    self.records.append({
                        "kind": "seeds", "seed": seed,
                        "problems": [f"time limit reached after {len(runs)} of "
                                     f"{self.wl['runs']} seeds"],
                    })
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(self.setup())
        return runs, setup

    def traced(self) -> dict:
        plain = self.cli(self.wl["command"], self.seed, self.dir / "out", "run")
        self.check_repeat(plain)
        spans_path = self.dir / "spans.json"
        spans_path.unlink(missing_ok=True)
        rec = self.cli(self.wl["command"], self.seed, self.dir / "traced", "traced", spans_path)
        if rec["digests"] != plain["digests"]:
            rec["problems"].append("traced artifacts differ from the untraced run")
        try:
            spans = json.loads(spans_path.read_text())
        except (OSError, ValueError) as exc:
            rec["problems"].append(f"no span file: {exc!r}")
            absent = list(trace.LAYERS)
            spans = {"metrics": trace.layer_metrics([], absent), "absent_layers": absent}
        metrics = dict(spans["metrics"])
        metrics["trace.wall_s"] = rec["wall_s"]
        metrics["trace.overhead_s"] = rec["wall_s"] - plain["wall_s"]

        probe_path = self.dir / "probe.json"
        probe_path.unlink(missing_ok=True)
        budget = min(PROBE_BUDGET_S, self.remaining() - 10.0)
        prec = self.spawn(
            [sys.executable, str(BENCH / "probe.py"), "--seed", str(self.seed),
             "--budget", str(budget), "--out", str(probe_path)],
            self.dir / "probe.log",
        )
        names = [probe.metric_name(*cell) for cell in probe.cells()]
        try:
            result = json.loads(probe_path.read_text())
        except (OSError, ValueError):
            result = {"ms": {}, "skipped": names}
        for name in names:
            metrics[name] = result["ms"].get(name, 0.0)
        skipped = result["skipped"]
        metrics["apdist.bl_probe_skipped"] = len(skipped)
        return {"metrics": metrics, "absent_layers": spans.get("absent_layers", []),
                "missing": spans.get("missing_entry_points", []), "probe_skipped": skipped,
                "probe_exit_code": prec["exit_code"]}


# ---------------------------------------------------------------------------
# machine and problem sizes
# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": THREADS,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads_env": {k: os.environ.get(k) for k in blas_env},
    }


def problem_sizes(out: Path) -> dict:
    """M, n, d, law support, distance count and CSV stride of a finished
    run, and which of them are subsampled."""
    meta = json.loads((out / "run_meta.json").read_text())
    cfg = meta["config"]
    num, ana = cfg["numerics"], cfg.get("analysis", {})
    h = Fraction(str(num["h"]))
    lo, hi = (Fraction(str(w)) for w in num["window"])
    with open(out / "ensemble.csv", encoding="utf-8") as fh:
        d = len(fh.readline().strip().split(",")) - 2
    m = int(num["n_paths"])
    sizes = {"M": m, "n": int((hi - lo) / h), "d": d, "csv_stride": meta["csv_stride"]}
    subsampled = []
    if (out / "apscan_report.json").exists():
        base = [Fraction(str(t)) for t in ana["times"]]
        shifts = [Fraction(str(s)) for s in ana["shifts"]]
        times = set(base) | {t + s for t in base for s in shifts}
        sizes["law_support"] = ana.get("law_support") or m
        sizes["distances"] = sum(t + s in times for s in shifts for t in times)
        if sizes["law_support"] < m:
            subsampled.append(f"laws: {sizes['law_support']} of {m} paths")
    if meta["csv_stride"] > 1:
        subsampled.append(f"ensemble.csv: every {meta['csv_stride']}th grid point")
    sizes["subsampled"] = subsampled
    return sizes


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def benchmark(name: str, workload: dict, seed: int, seconds: float,
              traced: bool) -> tuple[dict, list[str]]:
    """Run one benchmark; return the result object and the report lines."""
    bench = Bench(name, workload, seed)
    lines = [f"workload {name} seed {seed} trace {int(traced)}: closed loop, one client, "
             f"--threads {THREADS}"]
    extra = {}
    if traced:
        result = bench.traced()
        values = result["metrics"]
        units = PER_LAYER
        extra = {k: result[k] for k in ("absent_layers", "missing", "probe_skipped",
                                        "probe_exit_code")}
        lines.append(f"absent layers: {result['absent_layers'] or 'none'}")
        if result["probe_exit_code"] != 0:
            lines.append(f"probe exited with code {result['probe_exit_code']}; "
                         f"see {bench.dir / 'probe.log'}")
        if result["probe_skipped"]:
            lines.append("probe cells skipped as too slow, reported as their N^3 "
                         f"extrapolation: {result['probe_skipped']}")
        largest = max(LAYER_TIMES, key=lambda k: values.get(k, 0.0))
        lines.append(f"largest layer: {largest} ({values[largest]:.3f} s)")
        lines.append(f"bl_ms tail percentile: p{values['apdist.bl_ms_tail_pct']}")
    else:
        runs, setup = bench.workload_runs(seconds)
        values = {
            "wall_s": statistics.fmean(r["wall_s"] for r in runs),
            "cpu_s": statistics.fmean(r["cpu_s"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in runs),
        }
        units = END_TO_END
        lines.append(f"runs: {len(runs)} workload, {len(setup)} setup")

    failed = sum(bool(r["problems"]) for r in bench.records)
    attempted = len(bench.records)
    for rec in bench.records:
        for problem in rec["problems"]:
            lines.append(f"FAILED {rec['kind']} seed {rec.get('seed')}: {problem}")
    last = [r for r in bench.records if r["kind"] == "run"][-1:]
    sizes = {}
    if last and not last[0]["problems"]:
        # the last workload run's artifacts are still in place
        try:
            sizes = problem_sizes(bench.dir / "out")
        except (OSError, KeyError, TypeError, ValueError) as exc:
            sizes = {"unreadable": repr(exc)}
    host = machine()
    lines.append("machine " + json.dumps(host, sort_keys=True))
    lines.append("sizes " + json.dumps(sizes, sort_keys=True))
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units}
    for k, unit in units:
        lines.append(f"{k} {values[k]:.6g} {unit}")
    lines.append(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} runs failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"workload": name, "seed": seed, "trace": int(traced), "machine": host,
              "sizes": sizes, "result": result, "records": bench.records, **extra}
    (bench.dir / f"report-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(report, indent=1, default=str))
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "levyap" / "cli.py").is_file():
        print(f"error: no levyap sources under {SRC}; run inside a levyap checkout",
              file=sys.stderr)
        return 2
    result, lines = benchmark(args.workload, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
