"""Checks on the artifacts of one levyap CLI run.

Every check returns a list of problems; an empty list means the run's
outputs are correct.  The checks use only the artifacts and the
reference values in ``reference.json``, never the program's own code.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

# Two exact LP methods agree on beta to about 1e-9; this leaves room for
# a change of method but not for a wrong optimum.
BETA_ATOL = 1e-6
MOMENT_RTOL = 1e-8
# slack on the Picard gap ratio and the floor below which ratios are noise
RATE_SLACK = 0.1
FLOOR_FACTOR = 10.0

# artifacts covered by the determinism guarantee
DIGESTED = (
    "condition_report.json",
    "run_meta.json",
    "ensemble.csv",
    "apscan_report.json",
    "gap_trace.jsonl",
)


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digests(out: Path) -> dict[str, str]:
    """sha256 of each artifact present; gap_trace.jsonl without its
    ``wall_ms`` fields."""
    result = {}
    for name in DIGESTED:
        path = out / name
        if not path.exists():
            continue
        if name == "gap_trace.jsonl":
            lines = []
            for line in path.read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                rec.pop("wall_ms", None)
                lines.append(json.dumps(rec, sort_keys=True))
            data = "\n".join(lines).encode()
        else:
            data = path.read_bytes()
        result[name] = hashlib.sha256(data).hexdigest()
    return result


def check_condition(report: dict, expected: dict | None) -> list[str]:
    """The exact rational condition arithmetic, recomputed from its inputs,
    and (when given) the recorded reference report."""
    problems = []
    try:
        k, omega, lip, b = (
            Fraction(report[key]) for key in ("k", "omega", "lipschitz", "jump_bound")
        )
        lhs = (1 + 2 * b) / omega**2 + 2 / omega
        thr_e = 1 / (16 * k**2 * lip)
        thr_d = 1 / (32 * k**2 * lip)
        eta = 16 * k**2 * lip * (1 + 2 * b) / omega**2 + 32 * k**2 * lip / omega
        want = {
            "lhs": lhs,
            "threshold_existence": thr_e,
            "threshold_distribution": thr_d,
            "eta": eta,
        }
        for key, value in want.items():
            if Fraction(report[key]) != value:
                problems.append(f"condition_report {key} = {report[key]}, exact {value}")
        if report["verdict_distribution"] != (lhs < thr_d):
            problems.append("condition_report distribution verdict is wrong")
        if report["verdict_existence"] != (lhs < thr_e and lhs < thr_d):
            problems.append("condition_report existence verdict is wrong")
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"condition_report unreadable: {exc!r}")
        return problems
    for key, value in (expected or {}).items():
        if report.get(key) != value:
            problems.append(f"condition_report {key} = {report.get(key)!r}, reference {value!r}")
    return problems


def check_picard_meta(meta: dict, eta: float) -> list[str]:
    """Convergence, and gap ratios consistent with the contraction rate.

    The gaps are Monte-Carlo estimates and contract by ``eta`` only in
    expectation, so, as in the acceptance test of the Picard contraction,
    a ratio may reach ``eta + RATE_SLACK`` and only gaps above
    ``FLOOR_FACTOR`` times the smallest gap of the trace are checked.
    """
    problems = []
    if meta.get("converged") is not True:
        problems.append("run_meta converged is not true")
    gaps = [rec["gap"] for rec in meta.get("gap_trace", [])]
    if not gaps:
        return problems + ["run_meta has no gap trace"]
    tol = meta.get("config", {}).get("numerics", {}).get("tol")
    if tol is not None and not gaps[-1] <= float(tol):
        problems.append(f"final gap {gaps[-1]} above tol {tol}")
    floor = min(gaps)
    for i, (a, b) in enumerate(zip(gaps, gaps[1:])):
        if a > FLOOR_FACTOR * floor and b / a > eta + RATE_SLACK:
            problems.append(f"gap ratio {b / a:.4g} at iteration {i + 2} exceeds "
                            f"eta + {RATE_SLACK} = {eta + RATE_SLACK:.4g}")
    return problems


def check_ensemble_csv(path: Path, meta: dict) -> list[str]:
    """Header and row count against the stride and sizes in run_meta."""
    num = meta["config"]["numerics"]
    h = Fraction(str(num["h"]))
    lo, hi = (Fraction(str(w)) for w in num["window"])
    n_steps = int((hi - lo) / h)
    rows = len(range(0, n_steps + 1, int(meta["csv_stride"]))) * int(num["n_paths"])
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip().split(",")
        body = fh.read()
    problems = []
    if header[:2] != ["t", "path"] or len(header) < 3:
        problems.append(f"ensemble.csv header {header}")
    got = body.count(b"\n")
    if got != rows:
        problems.append(f"ensemble.csv has {got} rows, expected {rows}")
    return problems


def check_apscan(report: dict, reference: dict | None) -> list[str]:
    """Internal consistency of the scan report, and the recorded
    reference values when this run used the reference seed."""
    problems = []
    eps = report.get("epsilon")
    shifts = report.get("shifts", [])
    if not shifts:
        return ["apscan_report has no shifts"]
    for entry in shifts:
        beta = entry.get("sup_beta")
        if beta is None or not 0.0 <= beta <= 2.0:
            problems.append(f"sup_beta {beta} outside [0, 2] at shift {entry.get('s')}")
        elif entry.get("accepted") != (beta <= eps):
            problems.append(f"accepted flag wrong at shift {entry.get('s')}")
    if report.get("accepted_count") != sum(bool(e.get("accepted")) for e in shifts):
        problems.append("accepted_count disagrees with the per-shift flags")
    if reference is not None:
        ref_beta = reference["sup_beta"]
        got = [e.get("sup_beta") for e in shifts]
        if len(got) != len(ref_beta) or any(
            g is None or abs(g - r) > BETA_ATOL for g, r in zip(got, ref_beta)
        ):
            problems.append(f"sup_beta {got} differs from reference {ref_beta}")
        if report.get("accepted_count") != reference["accepted_count"]:
            problems.append(
                f"accepted_count {report.get('accepted_count')} differs from "
                f"reference {reference['accepted_count']}"
            )
    return problems


def check_run(out: Path, command: str, reference: dict | None,
              condition: dict | None) -> list[str]:
    """All checks for one run of ``command`` (check, picard or apscan).
    ``reference`` holds the recorded values of this workload at the
    reference seed, or None at any other seed.  A missing or malformed
    artifact is a problem, not an error."""
    try:
        return _check_run(out, command, reference, condition)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"artifacts missing or malformed: {exc!r}"]


def _check_run(out, command, reference, condition):
    cond = _load(out / "condition_report.json")
    problems = check_condition(cond, condition)
    if command == "check":
        return problems
    meta = _load(out / "run_meta.json")
    problems += check_picard_meta(meta, float(Fraction(cond["eta"])))
    problems += check_ensemble_csv(out / "ensemble.csv", meta)
    if reference is not None and "sup_second_moment" in reference:
        got, want = meta.get("sup_second_moment"), reference["sup_second_moment"]
        if got is None or not math.isclose(got, want, rel_tol=MOMENT_RTOL):
            problems.append(f"sup_second_moment {got} differs from reference {want}")
    if command == "apscan":
        problems += check_apscan(_load(out / "apscan_report.json"), reference)
    return problems


def check_ou_mean(out: Path, sigma: float = 0.3) -> list[str]:
    """The forced OU fixed point's empirical mean against the closed form
    m(t) = (sin(sqrt 2 t) - sqrt 2 cos(sqrt 2 t)) / 3 on [0, 30], within
    five times the Monte-Carlo scale sigma / sqrt(2 M) plus an O(h)
    quadrature allowance."""
    import numpy as np

    data = np.loadtxt(out / "ensemble.csv", delimiter=",", skiprows=1)
    times = np.unique(data[:, 0])
    n_paths = int(data[:, 1].max()) + 1
    mean = data[:, 2].reshape(len(times), n_paths).mean(axis=1)
    s2 = math.sqrt(2.0)
    exact = (np.sin(s2 * times) - s2 * np.cos(s2 * times)) / 3.0
    core = (times >= 0.0) & (times <= 30.0)
    err = float(np.abs(mean - exact)[core].max())
    h = float(times[1] - times[0]) if len(times) > 1 else 0.0
    limit = 5.0 * sigma / math.sqrt(2.0 * n_paths) + h
    if not err <= limit:
        return [f"OU mean misses the closed form by {err:.4g} (limit {limit:.4g})"]
    return []
