#!/usr/bin/env python3
"""Check that two levyap source trees write the same artifacts.

    python3 scripts/compare_artifacts.py OLD_SRC NEW_SRC

Each of OLD_SRC and NEW_SRC is a directory that holds the ``levyap``
package, or a checkout whose ``src`` holds it.  For each tree the script
runs ``python -m levyap.cli`` on

- ``check``, ``picard`` and ``apscan`` of every preset at ``--threads``
  1 and 2 and ``--seed`` 41 and 1041,
- ``apscan`` of ou_forced and galerkin_heat at their own seeds (no
  ``--seed``: 7 and 2), the runs a user gets from the presets as
  shipped, at ``--threads`` 1 and 2,
- ``picard --preset example41 --dt 1/1024 --paths 1024`` (the
  ``picard-ex41-fine`` benchmark point) at ``--threads`` 1 and 2,
- ``picard`` of example41 as shipped and of the fine point at
  ``--threads`` 3, whose rounds of one block per worker do not divide
  the blocks: 4 blocks are a round of 3 and a round of 1, 16 blocks
  five rounds of 3 and a round of 1,
- ``picard --config custom.json`` at ``--threads`` 1 and 2, with its
  own 64 paths and with ``--paths 150``, on the config
  ``tests/data/custom.json``: it takes paths no preset reaches (point
  marks, a jump term with mark weights, a correlated 2-d covariance,
  small and large jumps, and a non-diagonal generator with an unstable
  direction), and 150 paths spread its mark-weighted jumps over three
  blocks of 64 paths; and ``check`` of it at ``--threads`` 0, which is
  rejected,
- ``apscan`` at ``--threads`` 1 and 2 of three small configs whose state
  layouts no preset has (``LAYOUTS``): ``between.json``, whose one
  unreached state coordinate lies between two reached ones and is read
  by drift, diffusion and small-jump terms; ``nonnormal.json``, whose
  generator [[-6, 3], [-1, -6]] has complex eigenvalues, so that its
  exponentials go through ``expm`` and its one modal half through the
  complex Schur form, with a mode coupled to another, and whose first
  coordinate's stochastic row only large jumps fill; and
  ``unreached.json``, whose coefficient lists are all empty, so that the
  operator reaches no coordinate.  ``between``'s laws vary in two
  coordinates, so its scan runs the HiGHS transport LP, on laws of 64
  points, a realistic support.  With HiGHS at its default feasibility
  tolerances that scan failed its beta certificate (exit 2); 16 points,
  the support this config had before, was the one value at which it
  passed, and
- ``check --config NAME.json`` on each record of the rejected-config
  corpus ``tests/data/rejected.jsonl``, configs that validation
  rejects, whose exit code and stderr must not change (the tests hold
  each to its recorded exit code and error line),

each into its own directory under a temporary one, and compares the two
trees' runs (the configs are written next to each tree's output
directories): the exit code, stderr, stdout with the output directory
replaced by ``OUT``, and every artifact byte for byte, except that the
records of ``gap_trace.jsonl`` are compared without their ``wall_ms``
timing field.  It prints one line per run, which names every
difference of a run that differs, down to the key paths of a JSON
artifact (``run_meta.json: config.seed``), with the largest absolute
change of a state value in ``ensemble.csv`` and of each shift's
``sup_beta`` in ``apscan_report.json`` when that file differs and both
trees wrote it with the same rows and shifts, and exits 1 when any run
differs, 0 when every run matches.
"""

import argparse
import filecmp
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("example41", "ou_forced", "galerkin_heat")
FINE = ["picard", "--preset", "example41", "--dt", "1/1024", "--paths", "1024", "--seed", "41"]
DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
# example41 at h = 1/64 with 64 paths, in the state layouts of ``runs``
_SMALL = {"h": "1/64", "window": [-2, 4], "n_paths": 64, "truncation": 2, "tol": 1e-12,
          "max_iter": 40}
LAYOUTS = {
    "between": {
        "preset": "example41",
        "system": {"a": [[-6, 0, 0], [0, 8, 0], [0, 0, -7]],
                   "p": [[1, 0, 0], [0, 0, 0], [0, 0, 1]], "k": 1, "omega": 6},
        "coefficients": {
            "freqs": [1.4142135623730951, 1.7320508075688772, 2.23606797749979],
            "drift": [
                [{"scale": 1, "kernel": "bounded_ratio", "coord": 1,
                  "outer": "(c1 + s2) / (17 + c3)"}],
                [],
                [{"scale": "1/8", "kernel": "linear", "coord": 0}],
            ],
            "diffusion": [
                [[{"scale": "1/12", "kernel": "sin_shift", "coord": 2, "inner": "c2 + c1"}]],
                [[]],
                [[{"scale": "1/12", "kernel": "linear", "coord": 1}]],
            ],
            "jump_small": [
                [{"scale": "1/10", "kernel": "linear", "coord": 1}],
                [],
                [{"scale": "1/10", "kernel": "linear", "coord": 2}],
            ],
            "jump_large": [[], [], [{"scale": "1/9", "kernel": "linear", "coord": 0}]],
            "lipschitz": "1/64",
        },
        "numerics": _SMALL,
        "analysis": {"epsilon": 0.25, "shifts": ["1/4", "1/2", "3/4", 1],
                     "times": [0, "1/4", "1/2", "3/4", 1], "law_support": 64},
    },
    "nonnormal": {
        "preset": "example41",
        "system": {"a": [[-6, 3], [-1, -6]], "p": [[1, 0], [0, 1]], "k": 2, "omega": 6},
        "coefficients": {
            "freqs": [1.4142135623730951, 1.7320508075688772, 2.23606797749979],
            "drift": [
                [{"scale": "1/8", "kernel": "bounded_ratio", "coord": 1, "outer": "c1"}],
                [{"scale": 1, "kernel": "bounded_ratio", "coord": 1,
                  "outer": "(c1 + s2) / (17 + c3)"}],
            ],
            "diffusion": [
                [[]],
                [[{"scale": "1/12", "kernel": "sin_shift", "coord": 1, "inner": "c2 + c1"}]],
            ],
            "jump_small": [
                [], [{"scale": "1/10", "kernel": "linear", "coord": 1, "mark_weights": [1]}],
            ],
            "jump_large": [
                [{"scale": "1/9", "kernel": "linear", "coord": 0}],
                [{"scale": "1/9", "kernel": "linear", "coord": 1,
                  "outer": "s2 * s2 / (3 + c1 + c3)"}],
            ],
            "lipschitz": "1/64",
        },
        "numerics": _SMALL,
        "analysis": {"epsilon": 0.25, "shifts": ["1/4", "1/2"], "times": [0, "1/2"],
                     "law_support": 32},
    },
    "unreached": {
        "preset": "example41",
        "coefficients": {"freqs": [1.4142135623730951], "drift": [[], []],
                         "diffusion": [[[]], [[]]], "jump_small": [[], []],
                         "jump_large": [[], []], "lipschitz": "1/64"},
        "numerics": _SMALL,
    },
}


def custom() -> dict:
    """The config ``tests/data/custom.json``."""
    return json.loads((DATA / "custom.json").read_text())


def rejected() -> list[dict]:
    """The records of the rejected-config corpus
    ``tests/data/rejected.jsonl``, each with the config it describes as
    ``config``: its base, a preset or ``custom.json``, with the top-level
    sections of its patch in place of the base's."""
    records = [json.loads(line) for line in (DATA / "rejected.jsonl").read_text().splitlines()]
    base_custom = custom()
    for rec in records:
        base = base_custom if rec["base"] == "custom" else {"preset": rec["base"]}
        rec["config"] = {**base, **rec["patch"]}
    return records


def runs() -> list[list[str]]:
    """The argv of every compared run, without ``--out``."""
    out = []
    for command in ("check", "picard", "apscan"):
        for preset in PRESETS:
            for seed in ("41", "1041"):
                for threads in ("1", "2"):
                    out.append([command, "--preset", preset, "--seed", seed, "--threads", threads])
    for preset in ("ou_forced", "galerkin_heat"):  # their own seeds are neither 41 nor 1041
        out += [["apscan", "--preset", preset, "--threads", threads] for threads in ("1", "2")]
    out += [FINE + ["--threads", threads] for threads in ("1", "2")]
    out += [["picard", "--preset", "example41", "--threads", "3"], FINE + ["--threads", "3"]]
    for paths in ([], ["--paths", "150"]):
        out += [
            ["picard", "--config", "custom.json", *paths, "--threads", threads]
            for threads in ("1", "2")
        ]
    out.append(["check", "--config", "custom.json", "--threads", "0"])
    out += [
        ["apscan", "--config", f"{name}.json", "--threads", threads]
        for name in LAYOUTS
        for threads in ("1", "2")
    ]
    out += [["check", "--config", f"{rec['name']}.json"] for rec in rejected()]
    return out


def package_root(path: str) -> Path:
    """The directory that holds the ``levyap`` package of a source tree."""
    root = Path(path).resolve()
    for candidate in (root, root / "src"):
        if (candidate / "levyap" / "__init__.py").is_file():
            return candidate
    sys.exit(f"error: no levyap package in {root} or {root / 'src'}")


def run(src: Path, argv: list[str], out: Path) -> dict:
    """Run one command of the tree at ``src``; return what is compared
    apart from the artifact files."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "levyap.cli", *argv, "--out", str(out)],
        cwd=out.parent, env=env, capture_output=True, text=True,
    )
    return {
        "exit code": proc.returncode,
        "stdout": proc.stdout.replace(str(out), "OUT"),
        "stderr": proc.stderr,
    }


def gap_trace(path: Path) -> list:
    """The records of a gap trace without their ``wall_ms``."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        rec.pop("wall_ms", None)
    return records


def key_paths(a, b, path: str = "") -> list[str]:
    """The key paths at which two JSON values differ, in key order: a
    key that one object lacks, a list whose length differs, or unequal
    values.  Whole values that differ give ``[path]``, so ``[""]`` at
    the top."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            out += [sub] if (key in a) != (key in b) else key_paths(a[key], b[key], sub)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in key_paths(x, y, f"{path}[{i}]")]
    return [] if a == b else [path]


def artifact_differences(old: Path, new: Path) -> list[str]:
    """Every artifact that differs between two output directories, in
    name order; a JSON artifact names the key paths that differ, and a
    differing ``ensemble.csv`` or ``apscan_report.json`` is followed by
    its value change (``value_change``) when there is one."""
    out = []
    names = sorted({p.name for d in (old, new) if d.is_dir() for p in d.iterdir()})
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            out.append(f"{name} is written by one tree only")
        elif name == "gap_trace.jsonl":
            if gap_trace(a) != gap_trace(b):
                out.append(f"{name} differs outside wall_ms")
        elif not filecmp.cmp(a, b, shallow=False):
            paths = []
            if name.endswith(".json"):
                paths = key_paths(json.loads(a.read_text()), json.loads(b.read_text()))
            out.append(f"{name}: {', '.join(paths)}" if paths and all(paths) else f"{name} differs")
            out += value_change(a, b)
    return out


def value_change(a: Path, b: Path) -> list[str]:
    """The largest absolute change of the state values between two
    ``ensemble.csv`` files, or of each shift's ``sup_beta`` between two
    ``apscan_report.json`` files, when both are alike but for the values:
    a list of one line, else an empty one."""
    out = []
    if a.name == "ensemble.csv":
        with open(a) as fa, open(b) as fb:
            rows = itertools.zip_longest(fa, fb)
            line_a, line_b = next(rows)
            same, most = line_a == line_b, 0.0
            for line_a, line_b in rows:
                if line_a is None or line_b is None:
                    same = False
                    break
                x, y = line_a.split(","), line_b.split(",")
                same = same and x[:2] == y[:2] and len(x) == len(y)
                most = max(most, *(abs(float(u) - float(v)) for u, v in zip(x[2:], y[2:])))
        if same:
            out.append(f"ensemble.csv values move by up to {most:.3g}")
    elif a.name == "apscan_report.json":
        shifts = [[(e["s"], e["sup_beta"]) for e in json.loads(p.read_text())["shifts"]]
                  for p in (a, b)]
        if [s for s, _ in shifts[0]] == [s for s, _ in shifts[1]]:
            moves = [f"{abs(x - y):.3g}" for (_, x), (_, y) in zip(*shifts)]
            out.append(f"sup_beta moves by {', '.join(moves)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    trees = (package_root(args.old_src), package_root(args.new_src))
    with tempfile.TemporaryDirectory(prefix="levyap_compare_") as tmp:
        for side in ("old", "new"):
            (Path(tmp) / side).mkdir()
            configs = {
                "custom": custom(), **LAYOUTS, **{rec["name"]: rec["config"] for rec in rejected()}
            }
            for name, config in configs.items():
                (Path(tmp) / side / f"{name}.json").write_text(json.dumps(config))
        differing = 0
        for k, argv_k in enumerate(runs()):
            label = " ".join(argv_k)
            outs, results = [], []
            for side, src in zip(("old", "new"), trees):
                out = Path(tmp) / side / f"run{k}"
                results.append(run(src, argv_k, out))
                outs.append(out)
            diffs = [key for key in results[0] if results[0][key] != results[1][key]]
            diffs += artifact_differences(*outs)
            if diffs:
                differing += 1
                print(f"DIFFER  {label}: {'; '.join(diffs)}")
                continue
            files = len(list(outs[0].iterdir())) if outs[0].is_dir() else 0
            print(f"same    {label}  (exit {results[0]['exit code']}, {files} artifacts)")
    if differing:
        print(f"{differing} of {len(runs())} runs differ")
        return 1
    print(f"all {len(runs())} runs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
