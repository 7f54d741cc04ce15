#!/usr/bin/env python3
"""Fast self-check of the benchmark (about a minute).

    python3 perfbench/selfcheck.py

Runs both workload kinds on tiny overrides, untraced and traced, and
checks the printed metric names and units against BENCHMARK.json; checks
the self-time arithmetic on a synthetic span tree, that a missing entry
point marks its layer absent, that corrupted artifacts fail the checks
and are counted as failed runs, and the forced-OU closed-form check.
Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402

TINY_PICARD = {
    "command": "picard",
    "config": None,
    "args": ["--preset", "example41", "--paths", "8"],
    "runs": 1,
}
TINY_APSCAN = {
    "command": "apscan",
    "config": {
        "preset": "example41",
        "analysis": {"epsilon": 0.25, "shifts": ["1/4"], "times": [0, "1/4"], "law_support": 8},
    },
    "args": ["--paths", "16"],
    "runs": 2,
}
SEED = 5
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def tiny(name: str, workload: dict, traced: bool) -> dict:
    result, _ = run.benchmark(name, workload, SEED, 0.0, traced)
    return result


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    want_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(want_e2e == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(want_layer == list(run.PER_LAYER), "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    for name, workload in (("selfcheck-picard", TINY_PICARD), ("selfcheck-apscan", TINY_APSCAN)):
        for traced, want in ((False, want_e2e), (True, want_layer)):
            res = tiny(name, workload, traced)
            json.loads(json.dumps(res))
            got = [(k, v["unit"]) for k, v in res["metrics"].items()]
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}
                   and got == want and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1
                   and all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                   f"{name} trace {int(traced)}: correct, every metric named with its unit")
            if traced:
                cells = [res["metrics"][run.probe.metric_name(*c)]["value"]
                         for c in run.probe.cells()]
                expect(res["metrics"]["apdist.bl_probe_skipped"]["value"] > 0
                       and all(v > 0 for v in cells),
                       f"{name}: probe cells over the budget are skipped and read "
                       "their extrapolated cost")


def check_span_arithmetic() -> None:
    def span(i, name, parent, start, end, **attrs):
        return {"id": i, "name": name, "parent": parent, "start": start, "end": end,
                "attrs": attrs}

    tree = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 4.0),
        span(2, "b", 0, 3.0, 6.0),  # overlaps a: the union counts once
        span(3, "c", 1, 2.0, 3.0),
        span(4, "d", 2, 5.0, 12.0),  # runs past its parent: clipped
    ]
    got = trace.self_times(tree)
    want = {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 7.0}
    expect(all(math.isclose(got[k], v) for k, v in want.items()), "self time = duration - children")

    solver = [
        span(0, "solver.picard", None, 0.0, 10.0, iterations=1),
        span(1, "solver.apply_S", 0, 1.0, 5.0, path_steps=8),
        span(2, "coefficients.eval", 1, 1.0, 2.0),
        span(3, "coefficients.eval", 1, 3.0, 3.5),
    ]
    m = trace.layer_metrics(solver, ["simplex"])
    expect(math.isclose(m["solver.apply_S_s"], 4.0)
           and math.isclose(m["solver.apply_S_self_s"], 2.5)
           and math.isclose(m["coefficients.eval_s"], 1.5)
           and m["coefficients.eval_calls"] == 2
           and math.isclose(m["solver.path_steps_per_s"], 2.0)
           and m["trace.absent_layers"] == 1 and m["apdist.bl_calls"] == 0,
           "layer metrics from a synthetic solver trace")
    expect(trace.tail_percentile(78) == 87 and trace.tail_percentile(20) == 50
           and trace.tail_percentile(10) == 0, "tail percentile keeps ten samples beyond it")


def check_gap_ratios() -> None:
    eta = 5 / 48

    def meta(gaps):
        return {"converged": True, "config": {"numerics": {"tol": 1e-12}},
                "gap_trace": [{"gap": g} for g in gaps]}

    noisy = meta([1e-3, 1e-3 * (eta + 0.05), 1e-6, 5e-14, 1e-13 * 0.9, 5e-14])
    expect(checks.check_picard_meta(noisy, eta) == [],
           "gap ratios within eta + slack, or at the noise floor, pass")
    expect(checks.check_picard_meta(meta([1e-3, 1e-3 * (eta + 0.15), 1e-13]), eta) != [],
           "a gap ratio above eta + slack fails")


def check_missing_layer() -> None:
    fake = types.ModuleType("perfbench_fake_layer")
    fake.present = lambda x: x + 1
    sys.modules[fake.__name__] = fake
    tracer = trace.Tracer()
    absent = trace.install(tracer, (
        ("kept", fake.__name__, "present", "kept.call"),
        ("gone", fake.__name__, "removed", "gone.call"),
        ("gone_module", "perfbench_no_such_module", "f", "gone_module.call"),
    ))
    expect(fake.present(1) == 2 and [s["name"] for s in tracer.spans] == ["kept.call"]
           and absent == ["gone", "gone_module"] and len(tracer.missing) == 2,
           "missing entry points mark their layers absent")


def check_corruption() -> None:
    src = run.WORK / "selfcheck-apscan" / "out"
    work = run.WORK / "selfcheck" / "corrupt"

    def corrupted(edit) -> list[str]:
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(src, work)
        edit(work)
        report = json.loads((work / "apscan_report.json").read_text())
        ref = {"sup_beta": [e["sup_beta"] for e in report["shifts"]],
               "accepted_count": report["accepted_count"]}
        return checks.check_run(work, "apscan", ref, None)

    def edit_json(name, fn):
        def edit(out):
            data = json.loads((out / name).read_text())
            fn(data)
            (out / name).write_text(json.dumps(data))
        return edit

    expect(corrupted(lambda out: None) == [], "unchanged artifacts pass the checks")
    cases = {
        "eta": edit_json("condition_report.json", lambda d: d.update(eta="1/2")),
        "verdict": edit_json("condition_report.json", lambda d: d.update(verdict_existence=False)),
        "converged": edit_json("run_meta.json", lambda d: d.update(converged=False)),
        "gap ratio": edit_json("run_meta.json",
                               lambda d: d["gap_trace"][1].update(gap=d["gap_trace"][0]["gap"])),
        "accepted flag": edit_json("apscan_report.json",
                                   lambda d: d["shifts"][0].update(accepted=not d["shifts"][0]["accepted"])),
        "missing run_meta": lambda out: (out / "run_meta.json").unlink(),
        "csv rows": lambda out: (out / "ensemble.csv").write_text(
            "".join((out / "ensemble.csv").read_text().splitlines(True)[:-1])),
    }
    for what, edit in cases.items():
        expect(corrupted(edit) != [], f"corrupted {what} fails the checks")
    report = json.loads((src / "apscan_report.json").read_text())
    ref = {"sup_beta": [e["sup_beta"] + 1e-3 for e in report["shifts"]],
           "accepted_count": report["accepted_count"]}
    expect(checks.check_apscan(report, ref) != [], "sup_beta off the reference fails")

    # a changed artifact is counted as a failed run, end to end
    state_path = run.WORK / "digests.json"
    state = json.loads(state_path.read_text())
    tampered = copy.deepcopy(state)
    for digests in tampered.values():
        for name in digests:
            digests[name] = "0" * 64
    state_path.write_text(json.dumps(tampered))
    try:
        res = tiny("selfcheck-picard", TINY_PICARD, False)
    finally:
        state_path.write_text(json.dumps(state))
    expect(not res["correct"] and res["failed"] >= 1, "a changed artifact counts as a failed run")

    limit = run.RUN_LIMIT_S
    run.RUN_LIMIT_S = run.SETUP_RESERVE_S + 8.0
    try:
        res = tiny("selfcheck-seeds", dict(TINY_PICARD, runs=100), False)
    finally:
        run.RUN_LIMIT_S = limit
    expect(not res["correct"] and res["failed"] == 1,
           "a run cut short of the workload's seeds counts as failed")

    res = tiny("selfcheck-noconv", dict(TINY_PICARD, args=TINY_PICARD["args"] + ["--max-iter", "1"]),
               False)
    expect(not res["correct"] and res["failed"] == 1, "a run that does not converge counts as failed")


def check_ou() -> None:
    out = run.WORK / "selfcheck" / "ou"
    shutil.rmtree(out, ignore_errors=True)
    code = subprocess.run(
        [sys.executable, "-m", "levyap.cli", "picard", "--preset", "ou_forced", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(run.SRC)},
        stdout=subprocess.DEVNULL, check=False,
    ).returncode
    expect(code == 0 and checks.check_ou_mean(out) == [], "forced OU mean matches the closed form")
    lines = (out / "ensemble.csv").read_text().splitlines(True)
    shifted = [lines[0]] + [
        ",".join(f[:2] + [repr(float(f[2]) + 0.2)]) + "\n"
        for f in (line.rstrip("\n").split(",") for line in lines[1:])
    ]
    (out / "ensemble.csv").write_text("".join(shifted))
    expect(checks.check_ou_mean(out) != [], "a shifted OU mean fails the closed-form check")


def main() -> int:
    if not (run.SRC / "levyap" / "cli.py").is_file():
        print(f"error: no levyap sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    # short set-up and a probe budget that forces skipped cells
    run.SETUP_REPEATS = 2
    run.PROBE_BUDGET_S = 0.5
    check_span_arithmetic()
    check_gap_ratios()
    check_missing_layer()
    check_metric_names()
    check_corruption()
    check_ou()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
