"""Configuration and command-line layer tests.

Covers exact-rational config round trips, preset handling, validation
rejections, the builder helpers, and the CLI contract: exit codes,
artifact schemas, and byte-level determinism of the written outputs.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from _ensemble_oracles import dense
from _grid import galerkin_modes, steps, window_steps
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import levyap
import levyap.apdist
import levyap.cli
import levyap.config
from levyap import LevyapError
from levyap.apdist import EmpiricalLawError
from levyap.cli import _strip_wall, _write_ensemble_csv, cmd_apscan, cmd_picard, main
from levyap.coefficients import CoefficientError, SignalParseError, UnboundedSignalError
from levyap.config import (
    FIELD_TABLES,
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
    number_to_json,
    parse_number,
    preset_config,
    preset_names,
    validate_config,
)
from levyap.dichotomy import DichotomyError, MatrixExpOverflowError, diagonal_constants
from levyap.noise import NoiseSpecError, sample_noise
from levyap.solver import PathEnsemble, SolverError, _Plan


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def tiny_benchmark_dict():
    """Shrunken copy of the example41 preset: same system, noise and
    coefficients, but a short window and few paths so CLI tests run in
    well under a second each."""
    d = config_to_dict(preset_config("example41"))
    d["numerics"] = {
        "h": "1/32",
        "window": [-1, 2],
        "n_paths": 8,
        "truncation": "1/2",
        "tol": 1e-9,
        "max_iter": 25,
    }
    d["analysis"] = {
        "epsilon": 0.5,
        "shifts": ["1/4"],
        "times": [0, "1/4"],
        "law_support": 12,
    }
    return d


def tiny_galerkin_dict():
    """Three-mode spectral truncation diag(5/2 - k^2), k = 0..2, with the
    galerkin_heat preset's first three coefficient modes, small enough
    for fast CLI tests."""
    cfg = preset_config("galerkin_heat")
    return {
        "system": {
            "a": [["5/2", 0, 0], [0, "3/2", 0], [0, 0, "-3/2"]],
            "p": [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
            "k": 1,
            "omega": "3/2",
        },
        "levy": {
            "dim": 3,
            "covariance": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        },
        "coefficients": config_to_dict(cfg._replace(coefficients=galerkin_modes(3)))[
            "coefficients"
        ],
        "numerics": {
            "h": "1/8",
            "window": [-6, 10],
            "n_paths": 4,
            "truncation": 4,
            "tol": 1e-8,
            "max_iter": 30,
        },
        "seed": 5,
    }


def huge_drift_dict():
    """A scalar stable system whose drift 1 + 1e150 y makes the Picard
    iterates overflow; L = 1e300 is the drift's squared Lipschitz
    constant."""
    return {
        "system": {"a": [[-2]], "p": [[1]], "k": 1, "omega": 2},
        "levy": {"dim": 1, "covariance": [[1]]},
        "coefficients": {
            "freqs": [],
            "drift": [
                [
                    {"scale": 1, "kernel": "const"},
                    {"scale": "1e150", "kernel": "linear", "coord": 0},
                ]
            ],
            "diffusion": [[[]]],
            "jump_small": [[]],
            "jump_large": [[]],
            "lipschitz": "1e300",
        },
        "numerics": {
            "h": "1/32",
            "window": [-1, 1],
            "n_paths": 4,
            "truncation": "1/2",
            "tol": 1e-9,
            "max_iter": 10,
        },
        "seed": 3,
    }


def tiny_ou_dict():
    """Shrunken copy of the ou_forced preset, with a one-shift scan."""
    d = config_to_dict(preset_config("ou_forced"))
    d["numerics"] = {
        "h": "1/16",
        "window": [-3, 4],
        "n_paths": 16,
        "truncation": 2,
        "tol": 1e-9,
        "max_iter": 25,
    }
    d["analysis"] = {"epsilon": 0.5, "shifts": [1], "times": [0, "1/2"], "law_support": 12}
    return d


def signal_dict(outer):
    """``tiny_ou_dict`` with its forcing as a constant drift term whose
    outer signal is ``outer``, written out as docs/configuration.md
    writes it."""
    d = tiny_ou_dict()
    d["coefficients"] = {
        "freqs": [1.4142135623730951],
        "drift": [[{"scale": 1, "kernel": "const", "outer": outer}]],
        "diffusion": [[[{"scale": "3/10", "kernel": "const"}]]],
        "jump_small": [[]],
        "jump_large": [[]],
        "lipschitz": "1/1000000",
    }
    return d


def check_process(tmp_path, data):
    """``levyap check`` on the config ``data`` as its own process, so with
    the stack of the command line; a run that hangs fails at the
    timeout."""
    cfg = write_cfg(tmp_path, data)
    env = dict(os.environ, PYTHONPATH=str(Path(levyap.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "levyap.cli", "check", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )


# floats that repr prints in scientific notation, both signed zeros,
# subnormals and the largest double
CSV_SPECIAL_FLOATS = [1e-5, 1e16, 5e-324, -0.0, 0.0, -2.5e-310, 1.7976931348623157e308, -1e-7]
CSV_SPECIAL_REPRS = ("1e-05", "1e+16", "5e-324", "-0.0", "-2.5e-310", "1.7976931348623157e+308")


def count_formatted(monkeypatch, chunk):
    """Set the formatter's chunk (``_floatfmt._CHUNK``, which also sizes
    the CSV writer's blocks) when given, and return the list to which
    each ``ReprFormatter`` call then appends its number of values."""
    import levyap._floatfmt

    if chunk is not None:
        monkeypatch.setattr(levyap._floatfmt, "_CHUNK", chunk)
    sizes = []
    call = levyap._floatfmt.ReprFormatter.__call__

    def counted(self, x, *args, **kwargs):
        sizes.append(len(x))
        return call(self, x, *args, **kwargs)

    monkeypatch.setattr(levyap._floatfmt.ReprFormatter, "__call__", counted)
    return sizes


def assert_formatted_blocks(sizes, ens, n_rows, blocks):
    """The writer formatted each held coordinate once a block, in
    ``blocks`` blocks, each of at most one chunk of rows or one grid
    point."""
    import levyap._floatfmt

    formatted = len(ens.coords)
    assert len(sizes) == blocks * formatted, (len(sizes), blocks, formatted)
    assert sum(sizes) == n_rows * formatted
    assert max(sizes) <= max(levyap._floatfmt._CHUNK, ens.n_paths)


def per_row_ensemble_csv(ens, stride):
    """The byte oracle for ``ensemble.csv``: a writer that formats every
    row with its own f-string."""
    grid = ens.grid
    d = ens.dim
    lines = ["t,path," + ",".join(f"y{i}" for i in range(d)) + "\n"]
    for k in range(0, ens.n_steps + 1, stride):
        t_repr = repr(float(grid[k]))
        lines.extend(
            f"{t_repr},{p},{','.join(map(repr, row))}\n"
            for p, row in enumerate(dense(ens)[:, k, :].tolist())
        )
    return "".join(lines)


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def modules_after(commands, names):
    """Import ``levyap.cli`` in a fresh interpreter, then run ``main`` on
    each argv of ``commands`` in turn.  Returns one (exit code, loaded)
    pair per step, the import first with exit code None: ``loaded`` is
    the sorted list of the modules in ``names`` that are loaded after
    the step.  A name ``pkg.*`` stands for ``pkg`` and every module
    under it."""
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        f"names = {list(names)!r}\n"
        "def matches(m, n):\n"
        "    return m == n or n.endswith('.*') and (m == n[:-2] or m.startswith(n[:-1]))\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if any(matches(m, n) for n in names))\n"
        "from levyap.cli import main\n"
        "print(json.dumps([None, loaded()]))\n"
        f"for argv in {[list(c) for c in commands]!r}:\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv)\n"
        "    print(json.dumps([rc, loaded()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(levyap.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def check_every_preset(tmp_path, extra=()):
    """``check`` argv for each shipped preset."""
    return [
        ["check", "--preset", name, "--out", str(tmp_path / name), *extra]
        for name in preset_names()
    ]


def read_jsonl(path):
    return [json.loads(line) for line in read_lines(path)]


# scripts/compare_artifacts.py, whose reader of the rejected-config corpus
# the corpus test shares
_spec = importlib.util.spec_from_file_location(
    "compare_artifacts", Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"
)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)


# ---------------------------------------------------------------------------
# number parsing
# ---------------------------------------------------------------------------


class TestNumberParsing:
    def test_int_passthrough(self):
        value = parse_number(3, "x")
        assert value == 3 and isinstance(value, int)

    def test_float_passthrough(self):
        assert parse_number(0.125, "x") == 0.125

    def test_rational_string(self):
        assert parse_number("3/8", "x") == Fraction(3, 8)

    def test_negative_rational_string(self):
        assert parse_number("-59/2", "x") == Fraction(-59, 2)

    def test_bool_rejected(self):
        with pytest.raises(ConfigError):
            parse_number(True, "x")

    def test_non_finite_rejected(self):
        """Every number of a config has a finite double value, whatever
        its type; an int or Fraction past the largest double has none."""
        for value in (float("nan"), float("inf"), 10**400, -(10**400), Fraction(10**400)):
            with pytest.raises(ConfigError, match="^x must be a finite number$"):
                parse_number(value, "x")

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "10" * 200 + "/3"])
    def test_rational_too_large_for_float_rejected(self, text):
        with pytest.raises(ConfigError, match="too large for a float"):
            parse_number(text, "x")

    def test_bad_string_rejected(self):
        with pytest.raises(ConfigError):
            parse_number("3/8/2", "x")

    def test_none_rejected(self):
        with pytest.raises(ConfigError):
            parse_number(None, "x")

    @pytest.mark.parametrize("value", [5, -2, Fraction(7, 3), Fraction(1, 256), 0.125])
    def test_json_round_trip_preserves_value_and_type(self, value):
        back = parse_number(number_to_json(value), "x")
        assert back == value
        assert type(back) is type(value)


# ---------------------------------------------------------------------------
# config round trips and presets
# ---------------------------------------------------------------------------


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", preset_names())
    def test_dict_round_trip_identity(self, name):
        cfg = preset_config(name)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_echo_is_pinned(self, name):
        """A preset echoes as its file: rationals as the file's "p/q"
        strings, so a change of format shows here even where the round
        trip compares equal (Fraction(1, 256) == 0.00390625)."""
        path = Path(levyap.config.__file__).parent / "presets" / f"{name}.json"
        shipped = json.loads(path.read_text(encoding="utf-8"))
        echo = config_to_dict(preset_config(name))
        assert json.dumps(echo, sort_keys=True) == json.dumps(shipped, sort_keys=True)

    def test_file_round_trip_identity(self, tmp_path):
        cfg = preset_config("example41")
        path = write_cfg(tmp_path, config_to_dict(cfg))
        assert load_config(path) == cfg

    def test_rationals_serialized_exactly(self, tmp_path):
        cfg = preset_config("example41")
        path = write_cfg(tmp_path, config_to_dict(cfg))
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["numerics"]["h"] == "1/256"
        assert load_config(path).numerics.h == Fraction(1, 256)

    def test_preset_reference_with_overrides(self):
        cfg = config_from_dict({"preset": "example41", "seed": 99})
        base = preset_config("example41")
        assert cfg.seed == 99
        assert cfg.system == base.system
        assert cfg.numerics == base.numerics

    def test_preset_reference_section_override(self):
        d = config_to_dict(preset_config("example41"))
        num = dict(d["numerics"], h="1/32")
        cfg = config_from_dict({"preset": "example41", "numerics": num})
        assert cfg.numerics.h == Fraction(1, 32)
        assert cfg.system == preset_config("example41").system

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"preset": "does_not_exist"})

    def test_preset_names_stable(self):
        assert set(preset_names()) == {"example41", "ou_forced", "galerkin_heat"}

    @pytest.mark.parametrize("name", preset_names())
    def test_presets_validate(self, name):
        validate_config(preset_config(name))

    @pytest.mark.parametrize(
        "key, section, value",
        [
            ("numerics.h", "numerics", {"h": math.inf}),
            ("numerics.window[1]", "numerics", {"window": (-2, math.inf)}),
            ("numerics.tol", "numerics", {"tol": math.inf}),
            ("analysis.shifts[0]", "analysis", {"shifts": (math.inf, 1)}),
            ("system.k", "system", {"k": 10**400}),
        ],
    )
    def test_built_config_numbers_must_be_finite(self, key, section, value):
        """A config built with ``_replace``, not parsed, is held to
        ``parse_number``'s rule: a number without a finite double value
        is a ConfigError naming its key, not a bare ValueError or
        OverflowError, nor, for ``numerics.tol``, a run."""
        cfg = preset_config("example41")
        cfg = cfg._replace(**{section: getattr(cfg, section)._replace(**value)})
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be a finite number$"):
            validate_config(cfg)


class TestConfigSchema:
    @staticmethod
    def doc_sections(name):
        """Text of each '## ' section of a doc ('' for the text above the first)."""
        sections, heading = {}, ""
        text = (Path(__file__).parents[1] / "docs" / name).read_text(encoding="utf-8")
        for line in text.splitlines():
            if line.startswith("## "):
                heading = line[3:].strip()
            sections[heading] = sections.get(heading, "") + line + "\n"
        return sections

    def test_every_table_key_is_documented(self):
        configuration = self.doc_sections("configuration.md")
        signals = self.doc_sections("signals.md")
        missing = []
        for table, fields in FIELD_TABLES.items():
            if table.startswith("coefficients"):
                text = signals["Coefficient JSON"]
            else:
                text = configuration[table.split(".")[0]]
            missing += [
                f"{table}: {f.key}"
                for f in fields
                if f"`{f.key}`" not in text and f'"{f.key}"' not in text
            ]
        assert not missing


# ---------------------------------------------------------------------------
# validation rejections
# ---------------------------------------------------------------------------


class TestValidation:
    def check_rejects(self, mutate, match=None):
        d = tiny_benchmark_dict()
        mutate(d)
        with pytest.raises(ConfigError, match=match):
            validate_config(config_from_dict(d))

    def test_nonpositive_step(self):
        self.check_rejects(lambda d: d["numerics"].update(h=0), match="h")

    def test_window_reversed(self):
        self.check_rejects(lambda d: d["numerics"].update(window=[2, -1]))

    def test_window_must_contain_origin(self):
        self.check_rejects(lambda d: d["numerics"].update(window=[1, 3]))

    def test_window_endpoint_off_grid(self):
        self.check_rejects(lambda d: d["numerics"].update(window=[-1, "67/64"]))

    def test_too_few_paths(self):
        self.check_rejects(lambda d: d["numerics"].update(n_paths=1))

    def test_nonpositive_tolerance(self):
        self.check_rejects(lambda d: d["numerics"].update(tol=0.0))

    def test_bad_iteration_cap(self):
        self.check_rejects(lambda d: d["numerics"].update(max_iter=0))

    def test_bad_csv_stride(self):
        self.check_rejects(lambda d: d["numerics"].update(csv_stride=0))

    def test_negative_seed(self):
        self.check_rejects(lambda d: d.update(seed=-1))

    def test_bad_threads(self, tmp_path, capsys):
        """The thread count is the ``--threads`` option, not a config key
        (``threads`` is rejected as an unknown key): 0 exits 2 with one
        error line before anything is written."""
        out = tmp_path / "o"
        assert main(["check", "--preset", "example41", "--threads", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --threads must be at least 1\n"
        assert not out.exists()

    def test_nonpositive_epsilon(self):
        self.check_rejects(lambda d: d["analysis"].update(epsilon=0))

    def test_bad_law_support(self):
        self.check_rejects(lambda d: d["analysis"].update(law_support=0))

    def test_analysis_time_off_grid(self):
        self.check_rejects(lambda d: d["analysis"].update(times=["1/3"]))

    def test_shifted_time_outside_margin(self):
        # truncation 1/2 on window [-1, 2] leaves usable times [-1/2, 3/2]
        self.check_rejects(lambda d: d["analysis"].update(shifts=["3/2"]))

    @pytest.mark.parametrize("shifts", [["-1/4"], [0], ["-1/4", "1/2"], ["1/10000000000"]])
    def test_nonpositive_shift(self, shifts):
        self.check_rejects(
            lambda d: d["analysis"].update(shifts=shifts), match="analysis.shifts"
        )

    @pytest.mark.parametrize("shift", ["-1/4", 0, "1/10000000000"])
    def test_apscan_rejects_a_nonpositive_shift_before_running(self, tmp_path, capsys, shift):
        """A shift s <= 0 would enter the accepted set beside 0 and give a
        wrong (even negative) max_gap, so the run stops before it samples
        or writes anything; so does a shift off the grid."""
        d = config_to_dict(preset_config("example41"))
        d["analysis"]["shifts"] = [shift]
        out = tmp_path / "out"
        argv = ["apscan", "--config", str(write_cfg(tmp_path, d)), "--paths", "8"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "analysis.shifts" in err
        assert not out.exists()

    @given(data=st.data(), as_string=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_run_steps_equal_fraction_arithmetic(self, data, as_string):
        """The window, the truncation, every analysis time and every shift
        of a run are rationals on the grid of a rational h.  Written as
        floats or as "p/q" strings, the ``Run`` carries them as the steps
        that exact arithmetic gives, and the same value half a step off
        the grid is rejected with the message naming its key.  A
        truncation or a shift of 0 steps is rejected with its key."""
        # a float is read by its shortest repr, so written as floats the
        # times are exact on a grid whose steps have short decimals
        q = st.integers(1, 64) if as_string else st.sampled_from((1, 2, 4, 5, 8, 16, 25, 32, 64))
        h = Fraction(data.draw(st.integers(1, 3)), data.draw(q))
        w = data.draw(st.integers(1, 4))
        k_lo = data.draw(st.integers(-2 * w - 12, 0))
        k_hi = data.draw(st.integers(max(0, k_lo + 2 * w + 1), k_lo + 2 * w + 24))
        span = k_hi - k_lo - 2 * w
        # shifts are positive (``test_nonpositive_shift``), and neither
        # times nor shifts repeat (``repeated_analysis.*`` in the corpus)
        shifts = data.draw(st.lists(st.integers(1, span), min_size=1, max_size=3, unique=True))
        lo, hi = k_lo + w, k_hi - w - max(shifts)
        assume(lo <= hi)
        times = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3, unique=True))

        def write(x: Fraction):
            return f"{x.numerator}/{x.denominator}" if as_string else float(x)

        def configured(values):
            d = tiny_benchmark_dict()
            d["numerics"].update(
                h=write(h),
                window=[write(values["window start"]), write(values["window end"])],
                truncation=write(values["truncation"]),
            )
            d["analysis"].update(
                times=[write(x) for x in values["analysis time"]],
                shifts=[write(x) for x in values["analysis shift"]],
            )
            return config_from_dict(d)

        def exact(x: Fraction) -> int:
            assert (x / h).denominator == 1
            return (x / h).numerator

        values = {
            "window start": k_lo * h,
            "window end": k_hi * h,
            "truncation": w * h,
            "analysis time": [k * h for k in times],
            "analysis shift": [k * h for k in shifts],
        }
        run = validate_config(configured(values))
        assert run.k_lo == exact(values["window start"])
        assert run.n == exact(values["window end"] - values["window start"])
        assert run.w == exact(values["truncation"])
        assert run.times == tuple(map(exact, values["analysis time"]))
        assert run.shifts == tuple(map(exact, values["analysis shift"]))
        assert all(type(k) is int for k in (run.k_lo, run.n, run.w, *run.times, *run.shifts))

        keys = {
            "window start": "numerics.window[0]",
            "window end": "numerics.window[1]",
            "truncation": "numerics.truncation",
            "analysis time": "analysis.times[0]",
            "analysis shift": "analysis.shifts[0]",
        }
        for what, value in values.items():
            off = dict(values)
            # half a step outwards, so the window still contains 0
            nudge = -h / 2 if what == "window start" else h / 2
            if isinstance(value, list):
                bad = value[0] + nudge
                off[what] = [bad, *value[1:]]
            else:
                bad = off[what] = value + nudge
            message = f"{keys[what]} = {float(bad)} is not a multiple of the step h = {float(h)}"
            with pytest.raises(ConfigError, match=re.escape(message)):
                validate_config(configured(off))

        for what, key, value in (
            ("truncation", "numerics.truncation", 0),
            ("analysis shift", "analysis.shifts", [0]),
        ):
            with pytest.raises(ConfigError, match=re.escape(f"{key} must be at least one step")):
                validate_config(configured(dict(values, **{what: value})))

    def test_time_one_step_past_the_interior_edge(self):
        d = {
            "preset": "galerkin_heat",
            "analysis": {"epsilon": 0.3, "shifts": [1], "times": [0, "225/32"]},
        }
        with pytest.raises(ConfigError, match="analysis time 8.03125 leaves the window interior"):
            validate_config(config_from_dict(d))

    def test_window_too_narrow_for_truncation(self):
        self.check_rejects(lambda d: d["numerics"].update(truncation=2))

    def test_omega_zero(self):
        self.check_rejects(lambda d: d["system"].update(omega=0), match="omega")

    def test_omega_negative(self):
        self.check_rejects(lambda d: d["system"].update(omega=-6))

    def test_k_nonpositive(self):
        self.check_rejects(lambda d: d["system"].update(k=0))

    def test_unknown_coefficient_preset(self):
        """The section states its maps; it names no preset."""
        self.check_rejects(
            lambda d: d["coefficients"].update(preset="mystery"),
            match="coefficients.preset: unknown key",
        )

    def test_unknown_coefficient_param(self):
        self.check_rejects(
            lambda d: d["coefficients"].update(params={"bogus": 1}),
            match="coefficients.params: unknown key",
        )

    def test_coefficients_need_preset_or_custom(self):
        """The section's keys are required, so an empty section names the
        first of them."""
        self.check_rejects(
            lambda d: d.update(coefficients={}),
            match="coefficients.freqs: required key is missing",
        )

    def test_coefficient_dimension_mismatch(self):
        # ou_forced's maps are one-dimensional; the system is 2-d
        ou = config_to_dict(preset_config("ou_forced"))["coefficients"]
        self.check_rejects(
            lambda d: d.update(coefficients=ou),
            match=re.escape("coefficients: drift has 1 entries, not one per state coordinate (2)"),
        )

    @pytest.mark.parametrize("empty", ["times", "shifts"])
    def test_times_and_shifts_come_together(self, tmp_path, capsys, empty):
        """Analysis times without shifts, or shifts without times, are
        rejected by ``check`` as by ``apscan``: one error line, exit 2 and
        no output directory."""
        d = config_to_dict(preset_config("example41"))
        d["analysis"][empty] = []
        out = tmp_path / "o"
        assert main(["check", "--config", str(write_cfg(tmp_path, d)), "--out", str(out)]) == 2
        given = "shifts" if empty == "times" else "times"
        assert capsys.readouterr().err == (
            f"error: analysis.{empty} is empty but analysis.{given} is not; "
            "give both or neither\n"
        )
        assert not out.exists()

    def test_support_cap_applies_to_every_command(self, tmp_path, capsys):
        """Laws past ``bl_distance``'s support cap are rejected by
        ``check`` too whenever shifts are given, and not without them."""
        d = tiny_benchmark_dict()
        del d["analysis"]["law_support"]
        d["numerics"]["n_paths"] = 2100
        out = tmp_path / "o"
        assert main(["check", "--config", str(write_cfg(tmp_path, d)), "--out", str(out)]) == 2
        assert "above the cap 4096" in capsys.readouterr().err
        assert not out.exists()
        d["analysis"] = {"epsilon": 0.5}
        assert main(["check", "--config", str(write_cfg(tmp_path, d)), "--out", str(out)]) == 0


# ---------------------------------------------------------------------------
# property search: hostile leaves in the presets and the custom config
# ---------------------------------------------------------------------------

# ints and rationals past the largest double, the float edge cases,
# wrong JSON types and a ragged matrix
HOSTILE = (
    10**400, -(10**400), "1e400", float("inf"), float("nan"), 5e-324, 2**63, True, "x",
    "1/0", [], [[1, 2], [3]], {}, None, -0.0, 1e308,
)
# the config keys read as integers; every other number a config holds is
# read by parse_number
INT_KEYS = {f.key for t in FIELD_TABLES.values() for f in t if f.codec is levyap.config._INT}
BASES = {
    **{name: config_to_dict(preset_config(name)) for name in preset_names()},
    "custom": compare_artifacts.custom(),
}


def leaf_paths(obj, path=()):
    """The path of every leaf of a JSON value; an empty list or object
    is a leaf."""
    if isinstance(obj, (dict, list)) and obj:
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [p for k, v in items for p in leaf_paths(v, (*path, k))]
    return [path]


def config_numbers(value, key=""):
    """(key, value) of every number of a config record that is not an
    integer key's."""
    if isinstance(value, tuple):
        keys = value._fields if hasattr(value, "_fields") else (key,) * len(value)
        return [n for k, v in zip(keys, value) for n in config_numbers(v, k)]
    if isinstance(value, (int, float, Fraction)) and key not in INT_KEYS:
        return [(key, value)]
    return []


@given(data=st.data(), base=st.sampled_from(sorted(BASES)))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_hostile_leaves_are_rejected_or_finite(data, base):
    """One or two leaves of a preset or of the custom config replaced by
    hostile values: ``validate_config`` returns a ``Run`` or raises a
    ``LevyapError``, emits no ``RuntimeWarning``, and every number of an
    accepted config has a finite double value."""
    d = copy.deepcopy(BASES[base])
    # a leaf is on no other leaf's path, so each replacement leaves the
    # other's path in place
    leaves = st.lists(st.sampled_from(leaf_paths(d)), min_size=1, max_size=2)
    for *parents, last in data.draw(leaves):
        parent = d
        for k in parents:
            parent = parent[k]
        parent[last] = data.draw(st.sampled_from(HOSTILE))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            run = validate_config(config_from_dict(d))
        except LevyapError:
            return
    for key, value in config_numbers(run.config):
        assert math.isfinite(float(value)), (key, value)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


class TestConditionInputs:
    def test_benchmark_inputs_exact(self):
        cfg = preset_config("example41")
        k, omega, lip, b = validate_config(cfg).conditions
        assert (k, omega, lip, b) == (
            Fraction(1),
            Fraction(6),
            Fraction(1, 64),
            Fraction(1),
        )
        assert all(isinstance(v, Fraction) for v in (k, omega, lip, b))

    def test_jump_bound_sums_large_rates(self):
        d = tiny_benchmark_dict()
        d["levy"]["jumps"] = list(d["levy"]["jumps"]) + [
            {
                "rate": "1/2",
                "marks": {"kind": "uniform_interval", "a": 2, "b": 3},
            }
        ]
        _, _, _, b = validate_config(config_from_dict(d)).conditions
        assert b == Fraction(3, 2)

    def test_galerkin_heat_declares_its_certified_constants(self):
        """galerkin_heat states the spectral truncation diag(5/2 - k^2),
        k = 0..7, with P on the decaying modes k >= 2, and declares the
        exact (K, omega) that ``diagonal_constants`` certifies for it."""
        cfg = preset_config("galerkin_heat")
        eigs = [Fraction(5, 2) - k * k for k in range(8)]
        assert cfg.system.a == tuple(
            tuple(e if i == j else 0 for j in range(8)) for i, e in enumerate(eigs)
        )
        assert cfg.system.p == tuple(
            tuple(1 if i == j >= 2 else 0 for j in range(8)) for i in range(8)
        )
        declared = (cfg.system.k, cfg.system.omega)
        assert declared == (1, Fraction(3, 2)) == diagonal_constants(cfg.system.a, cfg.system.p)
        run = validate_config(cfg)
        assert run.conditions[:2] == declared
        assert (run.system.rank_unstable, run.system.rank_stable) == (2, 6)


# ---------------------------------------------------------------------------
# CLI: exit codes
# ---------------------------------------------------------------------------


class TestCliExitCodes:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("command", ["simulate", "galerkin"])
    def test_removed_commands_are_invalid_choices(self, tmp_path, capsys, command):
        """The commands are the engine's three parts; the forward run and
        the envelope fit of (K, omega) are test oracles."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "galerkin_heat", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{command}'" in err
        choices = err.split("choose from ", 1)[1].split(")", 1)[0]
        assert choices.replace("'", "").split(", ") == ["check", "picard", "apscan"]
        assert not (tmp_path / "o").exists()

    def test_check_pass(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", "--preset", "example41", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "existence verdict:    PASS" in text
        assert "5/48" in text

    def test_check_fail_when_jumps_too_frequent(self, tmp_path, capsys):
        d = tiny_benchmark_dict()
        d["levy"]["jumps"][1]["rate"] = 30
        cfg = write_cfg(tmp_path, d)
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "existence verdict:    FAIL" in text
        assert "73/36" in text

    @pytest.mark.parametrize(
        "outer, message",
        [
            ("9" * 400, "not finite"),
            ("0*" + "9" * 400, "not finite"),
            ("sin(" + "9" * 400 + ")", "not finite"),
            ("(" + "+".join(["c1"] * 1500) + ")/1500", "deeper than 100 levels"),
            ("(" * 300 + "c1" + ")" * 300, "deeper than 100 levels"),
        ],
        ids=["huge-literal", "zero-times-huge", "sine-of-huge", "long-sum", "deep-brackets"],
    )
    def test_unbounded_or_deep_signal_exits_2(self, tmp_path, outer, message):
        """A literal past the largest double, and a signal deep enough to
        exhaust the recursion of its parse or of its certificate, end
        ``check`` with exit code 2 and an error line, not with a PASS
        for bounds (inf, inf) or (nan, nan) or with a traceback."""
        proc = check_process(tmp_path, signal_dict(outer))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "preset, entries, message",
        [
            ("ou_forced", {("system", "p", 0, 0): -1e308}, "projection P"),
            (
                "example41",
                {
                    ("system", "a", 0, 0): "-1e200",
                    ("system", "a", 1, 1): "-2e200",
                    ("system", "p", 0, 0): 1,
                    ("system", "p", 0, 1): "1e150",
                    ("system", "p", 1, 1): 0,
                },
                "does not commute",
            ),
            (
                "galerkin_heat",
                {("levy", "covariance", 0, 0): -1e308, ("levy", "covariance", 0, 1): 0.5},
                "wiener covariance",
            ),
            (
                "galerkin_heat",
                {
                    ("levy", "covariance", 0, 0): -1e308,
                    ("levy", "covariance", 1, 1): -1e308,
                    ("levy", "covariance", 0, 1): 2,
                },
                "wiener covariance",
            ),
        ],
        ids=[
            "projection-square",
            "projection-commutation",
            "covariance-indefinite",
            "covariance-eigvalsh",
        ],
    )
    def test_overflowing_matrix_entry_exits_2(self, tmp_path, preset, entries, message):
        """Entries near the largest double whose square, product or
        symmetrised sum overflows: ``P @ P`` against ``|P|^2`` raised
        OverflowError; ``A @ P - P @ A`` of inf - inf was NaN, which passed
        a commutation test written as ``error > tol``, so the run failed
        later on an overflow that did not name the cause, after two numpy
        warnings; a covariance whose (Q + Q^T)/2 overflows passed as
        semidefinite (eigvalsh gave NaN) or raised LinAlgError.  Each is
        one error line with exit code 2."""
        d = config_to_dict(preset_config(preset))
        for (section, key, i, j), value in entries.items():
            d[section][key][i][j] = value
        proc = check_process(tmp_path, d)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("coefficients.dim_state", 8),
            ("coefficients.dim_noise", 8),
            ("coefficients.params.n_modes", 8),
            ("levy.jumps[0].marks.dim", 8),
        ],
    )
    def test_dimension_keys_are_rejected(self, tmp_path, capsys, key, value):
        """The state dimension comes from the system and the noise
        dimension from levy.dim; a key that repeats one is rejected even
        at the value it would have to hold, and nothing is written.  The
        keys go into the galerkin_heat preset.  The coefficients take no
        parameters, so ``coefficients.params`` itself is the unknown key
        named."""
        d = config_to_dict(preset_config("galerkin_heat"))
        *path, last = key.replace("[0]", ".0").split(".")
        node = d
        for part in path:
            node = node[int(part)] if part.isdigit() else node.setdefault(part, {})
        node[last] = value
        cfg = write_cfg(tmp_path, d)
        out = tmp_path / "o"
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        named = "coefficients.params" if key.startswith("coefficients.params") else key
        assert f"{named}: unknown key" in err
        assert not out.exists()

    def test_sine_of_a_huge_literal_is_certified(self, tmp_path):
        """sin(1e25) is bounded, and its certificate takes as little work
        as sin(1); past 2^53 a search over the critical points in steps
        of pi never ended."""
        proc = check_process(tmp_path, signal_dict("sin(10000000000000000000000000)"))
        assert proc.returncode == 0, proc.stderr
        assert "existence verdict:    PASS" in proc.stdout

    def test_check_requires_config(self, capsys):
        assert main(["check"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["--preset", "config"])
    @pytest.mark.parametrize(
        "name",
        [
            "../presets/example41",
            "example41.json",
            pytest.param(
                str(Path(levyap.config.__file__).parent / "presets" / "example41.json"),
                id="absolute",
            ),
            "",
        ],
    )
    def test_preset_name_is_not_a_path(self, tmp_path, capsys, monkeypatch, via, name):
        """A preset is found by its name only: a path to a shipped file,
        relative or absolute, or an empty name exits 2 as an unknown
        preset, from ``--preset`` and from a config's "preset" key, and
        no file but the config itself is opened."""
        opened = []

        def spy(path, *args, **kwargs):
            opened.append(Path(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(levyap.config, "open", spy, raising=False)
        if via == "config":
            cfg = write_cfg(tmp_path, {"preset": name})
            argv, reads = ["--config", str(cfg)], [cfg]
        else:
            argv, reads = ["--preset", name], []
        out = tmp_path / "o"
        assert main(["check", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: unknown preset {name!r}; known: ")
        assert opened == reads
        assert not out.exists()

    def test_config_and_preset_conflict(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tiny_benchmark_dict())
        code = main(
            ["check", "--config", str(cfg), "--preset", "example41",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["check", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        """A config file that is not UTF-8 JSON is one error line naming
        the file, whatever the JSON reader trips on."""
        for name, content in (
            ("syntax", b"{not json"),
            ("not-utf8", b"\xff\xfe{}"),
            ("deep", b"[" * 100_000),  # nested past the recursion limit
            ("5000-digits", b'{"seed": ' + b"1" * 5000 + b"}"),  # past Python's digit limit
        ):
            path = tmp_path / f"{name}.json"
            path.write_bytes(content)
            out = tmp_path / "o"
            code = main(["check", "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2, name
            assert len(err.splitlines()) == 1, name
            assert err.startswith(f"error: config {path}: invalid JSON ("), name
            assert not out.exists(), name

    def test_invalid_system_rejected(self, tmp_path, capsys):
        d = tiny_benchmark_dict()
        d["system"]["omega"] = 0
        cfg = write_cfg(tmp_path, d)
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "omega" in capsys.readouterr().err

    def check_system(self, tmp_path, capsys, **system):
        d = tiny_benchmark_dict()
        d["system"].update(system)
        cfg = write_cfg(tmp_path, d)
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    def test_k_below_one_rejected_on_diagonal_system(self, tmp_path, capsys):
        """||P|| = 1 at t = 0, so no K below 1 bounds example41's stable
        half; random probe vectors rarely line up with range(P), so only
        the exact certificate catches a K this close to 1."""
        code, err = self.check_system(tmp_path, capsys, k="99999999/100000000")
        assert code == 2
        assert "system.k" in err and "Traceback" not in err

    def test_omega_above_certified_rate_rejected(self, tmp_path, capsys):
        code, err = self.check_system(tmp_path, capsys, omega="6000001/1000000")
        assert code == 2
        assert "system.omega" in err and "Traceback" not in err

    def test_certified_boundary_constants_accepted(self, tmp_path, capsys):
        code, err = self.check_system(tmp_path, capsys, k="1/1", omega="6/1")
        assert code == 0, err
        code, err = self.check_system(tmp_path, capsys, k="101/100", omega=5)
        assert code == 0, err

    def test_decaying_exponential_passes_the_overflow_guard(self, tmp_path, capsys):
        """galerkin_heat's fastest mode decays at 46.5, so over a truncation
        of 16 its propagator is e^{-744}: ||A|| |t| > 700, but nothing
        grows, and the guard lets it through."""
        d = config_to_dict(preset_config("galerkin_heat"))
        d["numerics"].update(window=[-20, 40], truncation=16)
        cfg = write_cfg(tmp_path, d)
        for command in ("check", "picard"):
            out = tmp_path / command
            code = main([command, "--config", str(cfg), "--paths", "2", "--out", str(out)])
            assert code == 0, capsys.readouterr().err

    def test_diagonal_system_without_decay_rejected(self, tmp_path, capsys):
        # the stable coordinate has eigenvalue 0: no rate is certified
        code, err = self.check_system(tmp_path, capsys, a=[[8, 0], [0, 0]])
        assert code == 2
        assert "no dichotomy" in err and "Traceback" not in err

    def test_tiny_step_rejected_before_sampling(self, tmp_path, capsys):
        """A step so small that the noise sample cannot be allocated is a
        config error naming the step, not a traceback from the sampler."""
        code = main(
            ["picard", "--preset", "example41", "--paths", "3", "--dt", "1e-300",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "numerics.h" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_run_over_the_budget_rejected_before_any_artifact(self, tmp_path, capsys):
        """A run whose kept states and block of noise would not fit in
        memory exits 2 with one line naming the step and the path count,
        before the condition report or anything else is written."""
        out = tmp_path / "o"
        code = main(["picard", "--preset", "example41", "--dt", "1/100000000", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: numerics.h = 1e-08 ")
        assert captured.err.count("\n") == 1
        assert "numerics.n_paths = 256" in captured.err
        assert "1.15e+11 doubles, above the budget of 268435456" in captured.err
        assert not out.exists()

    def test_budget_admits_the_largest_runs(self):
        """The budget holds every shipped preset, example41 at h = 1/1024
        with 1024 paths, 1024 paths of example41 over the window [-2, 562]
        at h = 1/64 with every grid point written, and 4096 at the default
        stride, but not 4096 with every point written.  It counts one
        block's noise: 64 paths over [-2, 4] fit at h = 2^-17, not
        2^-18.  And one block's jump events: rate 10^5 fits, 2 * 10^5
        does not (the corpus holds the three rejected configs)."""
        for name in preset_names():
            validate_config(preset_config(name))
        cfg = preset_config("example41")
        fine = cfg.numerics._replace(h=Fraction(1, 1024), n_paths=1024)
        long = cfg.numerics._replace(h=Fraction(1, 64), window=(-2, 562), n_paths=1024)
        dense = cfg.numerics._replace(h=Fraction(1, 2**17), n_paths=64)
        for numerics in (fine, long._replace(csv_stride=1), long._replace(n_paths=4096), dense):
            validate_config(cfg._replace(numerics=numerics))
        with pytest.raises(ConfigError, match="numerics.n_paths = 4096 .* above the budget"):
            validate_config(cfg._replace(numerics=long._replace(n_paths=4096, csv_stride=1)))
        with pytest.raises(ConfigError, match="numerics.n_paths = 64 .* above the budget"):
            validate_config(cfg._replace(numerics=dense._replace(h=Fraction(1, 2**18))))
        def with_rate(rate):
            jumps = (cfg.levy.jumps[0]._replace(rate=rate), *cfg.levy.jumps[1:])
            return cfg._replace(levy=cfg.levy._replace(jumps=jumps))

        validate_config(with_rate(10**5))
        with pytest.raises(ConfigError, match="a block of 64 paths .* above the budget"):
            validate_config(with_rate(2 * 10**5))

    @pytest.mark.parametrize(
        "message, shown",
        [
            (
                "Unable to allocate 458. GiB for an array with shape "
                "(10000000, 6144, 1) and data type float64",
                "Unable to allocate 458. GiB for an array with shape "
                "(10000000, 6144, 1) and data type float64",
            ),
            ("", "an allocation failed"),
        ],
    )
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, message, shown):
        """An allocation that fails ends the run with exit 2 and one line
        naming it, not a traceback.  The sampler is patched to fail where
        the solve's first block draws its Wiener increments, so no huge
        array is allocated (an overcommitting host could grant it)."""

        def exhausted(*args, **kwargs):
            raise MemoryError(message) if message else MemoryError()

        monkeypatch.setattr("levyap.noise.sample_noise", exhausted)
        code = main(["picard", "--preset", "example41", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: out of memory: {shown}\n"

    def test_noise_drift_must_be_zero(self, tmp_path, capsys):
        # the equation's noise has no drift: levy.drift is not a field, so
        # any value, zero included, is an unknown key
        d = tiny_benchmark_dict()
        dim = d["levy"]["dim"]
        for drift in ([5] * dim, [0] * dim):
            d["levy"]["drift"] = drift
            cfg = write_cfg(tmp_path, d)
            code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert code == 2
            assert "levy.drift: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record", compare_artifacts.rejected(), ids=lambda record: record["name"]
    )
    # pytest records warnings apart from stderr; a command line run prints
    # them before the error line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_config_names_key_path(self, tmp_path, capsys, record):
        """Each config of the rejected-config corpus, tests/data/rejected.jsonl,
        exits from ``check`` with its recorded code and its one recorded
        error line, which names the key path at fault, and writes
        nothing."""
        cfg = write_cfg(tmp_path, record["config"])
        out = tmp_path / "o"
        code = main(["check", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == record["exit"]
        assert err.splitlines() == [record["error"]]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--dt", "1/0", "zero denominator in '1/0'"),
            ("--dt", "1e400/1", "expected a number or a 'p/q' rational, got '1e400/1'"),
        ],
    )
    def test_malformed_numeric_override_is_usage_error(
        self, tmp_path, capsys, flag, value, message
    ):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--preset", "example41", flag, value,
                  "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--dt", "inf", "numerics.h must be a finite number"),
            ("--dt", "nan", "numerics.h must be a finite number"),
            # a numerics key of the config: a JSON integer of 400 digits
            # parses, and overflows a float
            ("truncation", 10**400, "numerics.truncation must be a finite number"),
            ("tol", 10**400, "numerics.tol must be a finite number"),
            ("truncation", "1/10000000000", "numerics.truncation = 1e-10 is not a multiple"),
            # 3 * 10**310 steps, a count formatted without a float
            ("--dt", "1e-310", "window [-1.0, 2.0] into 3.00e+310 steps"),
        ],
        ids=lambda v: "10**400" if v == 10**400 else None,
    )
    def test_numeric_override_rejected_before_artifacts(
        self, tmp_path, capsys, flag, value, message
    ):
        d = tiny_benchmark_dict()
        override = []
        if flag.startswith("--"):
            override = [flag, value]
        else:
            d["numerics"][flag] = value
        cfg = write_cfg(tmp_path, d)
        out = tmp_path / "o"
        code = main(["picard", "--config", str(cfg), *override, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_galerkin_without_spectral_gap(self, tmp_path, capsys):
        """diag(1 - k^2), k = 0..2, has its k = 1 mode on the imaginary
        axis: no rate is certified."""
        d = tiny_galerkin_dict()
        d["system"]["a"] = [[1, 0, 0], [0, 0, 0], [0, 0, -3]]
        cfg = write_cfg(tmp_path, d)
        code = main(["picard", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no dichotomy" in err

    def test_galerkin_block_is_an_unknown_key(self, tmp_path, capsys):
        """The system is stated by its matrices and constants alone; the
        spectral block of earlier versions is rejected by name before
        anything is written."""
        d = tiny_galerkin_dict()
        d["system"] = {"galerkin": {"n_modes": 3, "a0": "5/2"}}
        cfg = write_cfg(tmp_path, d)
        out = tmp_path / "o"
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: system.galerkin: unknown key") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["drift", "diffusion", "jump_small", "jump_large"])
    def test_custom_term_lists_are_required(self, tmp_path, capsys, key):
        """An empty term list fits no state dimension, so each of the four
        lists of the coefficients must be given."""
        d = signal_dict("s1")
        del d["coefficients"][key]
        cfg = write_cfg(tmp_path, d)
        out = tmp_path / "o"
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: coefficients.{key}: required key is missing\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, truncation",
        [("k", 1e300, 2), ("omega", 1e-300, 2), ("omega", 1e-310, None)],
        ids=["k-1e300", "omega-1e-300", "omega-1e-310-default-truncation"],
    )
    def test_condition_rate_overflow_rejected(self, tmp_path, key, value, truncation):
        """A declared K or omega whose contraction rate eta overflows a
        float is a config error naming the key.  The condition report's
        float of eta raised OverflowError, and so did the default
        truncation, 12/omega in steps, at an omega below 1e-308."""
        d = config_to_dict(preset_config("example41"))
        d["system"][key] = value
        d["numerics"]["truncation"] = truncation
        proc = check_process(tmp_path, d)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: system.k = ") and proc.stderr.count("\n") == 1
        assert f"system.{key} = {value}" in proc.stderr and "overflows a float" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_picard_not_converged(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tiny_benchmark_dict())
        code = main(
            ["picard", "--config", str(cfg), "--max-iter", "1",
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "NOT converged" in capsys.readouterr().out

    def test_picard_verdict_false_still_runs(self, tmp_path, capsys):
        d = tiny_benchmark_dict()
        d["levy"]["jumps"][1]["rate"] = 30
        cfg = write_cfg(tmp_path, d)
        code = main(["picard", "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert "warning: existence conditions fail" in captured.err
        assert "converged" in captured.out


# ---------------------------------------------------------------------------
# CLI: artifacts
# ---------------------------------------------------------------------------


class TestCliErrorMapping:
    """Bad input and failed solves raise subclasses of one base,
    ``levyap.LevyapError``, which ``main`` reports as ``error: <message>``
    with exit code 2 without importing the modules that define them."""

    def test_user_errors_share_one_base(self):
        bases = {
            ConfigError: ValueError,
            NoiseSpecError: ValueError,
            DichotomyError: ValueError,
            MatrixExpOverflowError: ArithmeticError,
            CoefficientError: ValueError,
            SignalParseError: ValueError,
            UnboundedSignalError: ValueError,
            SolverError: RuntimeError,
            EmpiricalLawError: ValueError,
        }
        for cls, base in bases.items():
            assert issubclass(cls, LevyapError) and issubclass(cls, base), cls

    def test_solver_error_exits_2(self, tmp_path, capsys):
        """A linear drift of 1e150, with its honest L = 1e300, fails the
        conditions; ``picard`` iterates anyway, and the fourth iterate
        overflows."""
        path = write_cfg(tmp_path, huge_drift_dict())
        (tmp_path / "direct").mkdir()
        with pytest.raises(SolverError, match="non-finite states") as exc:
            cmd_picard(validate_config(load_config(path)), tmp_path / "direct", 1)
        capsys.readouterr()
        assert main(["picard", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        warning, error = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: existence conditions fail")
        assert error == f"error: {exc.value}"

    def test_empirical_law_error_exits_2(self, tmp_path, capsys, monkeypatch):
        """A line solver allowed no cutting-plane round fails the scan's
        first distance."""
        monkeypatch.setattr(levyap.apdist, "_LINE_ROUNDS", 0)
        path = write_cfg(tmp_path, tiny_benchmark_dict())
        (tmp_path / "direct").mkdir()
        with pytest.raises(EmpiricalLawError, match="did not converge") as exc:
            cmd_apscan(validate_config(load_config(path)), tmp_path / "direct", 1)
        assert main(["apscan", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_two_dim_scan_passes_its_certificate(self, tmp_path, capsys, seed):
        """The scan of ``scripts/compare_artifacts.py``'s ``between`` config,
        whose laws of 64 points vary in two coordinates, solves every
        distance by the HiGHS transport LP within the 1e-9 certificate
        gap.  At HiGHS's default feasibility tolerances these seeds failed
        it (gaps 1.0e-9 to 2.6e-9) and exited 2."""
        between = compare_artifacts.LAYOUTS["between"]
        assert between["analysis"]["law_support"] == 64
        cfg = write_cfg(tmp_path, between)
        out = tmp_path / "o"
        code = main(["apscan", "--config", str(cfg), "--seed", seed, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert len(json.loads((out / "apscan_report.json").read_text())["shifts"]) == 4

    def test_nonnormal_layout_reaches_the_non_diagonal_solver_path(self):
        """``scripts/compare_artifacts.py``'s ``nonnormal`` config is the one
        compared run whose plan has a complex modal half (the generator's
        eigenvalues are -6 +- i sqrt(3)), a mode coupled to another and a
        stochastic row that only jumps fill (no entries), so the artifact
        comparison covers the Schur path of the solver."""
        run = validate_config(config_from_dict(compare_artifacts.LAYOUTS["nonnormal"]))
        noise = sample_noise(run.spec, *window_steps(-1.0, 1.0, 1.0 / 16), 1.0 / 16, 2, seed=0)
        plan = _Plan.build(run.system, run.coefficients, noise, steps(0.5, noise.h))
        assert any(np.iscomplexobj(half.tri) for half in plan.halves)
        assert any(c != 0 for live in plan.modes for mode in live for _, c in mode.couplings)
        assert [r.coord for r in plan.rows if r.kind and not r.parts] == [0]

    @pytest.mark.parametrize(
        "law_support, paths, size",
        [(None, 2100, 2100), (2049, 2100, 2049), (5000, 4000, 4000)],
    )
    def test_apscan_support_cap_rejected_before_the_solve(
        self, tmp_path, capsys, law_support, paths, size
    ):
        """Two laws of n points merge to up to 2n; beyond the cap of
        ``bl_distance`` the run stops before it solves anything."""
        d = tiny_benchmark_dict()
        if law_support is None:
            del d["analysis"]["law_support"]
        else:
            d["analysis"]["law_support"] = law_support
        cfg = write_cfg(tmp_path, d)
        out = tmp_path / "o"
        code = main(["apscan", "--config", str(cfg), "--paths", str(paths), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: apscan compares laws of {size} points, so their merged support "
            f"can reach {2 * size}, above the cap 4096; set analysis.law_support "
            "to at most 2048\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_apscan_support_cap_counts_the_drawn_paths(self, tmp_path, capsys):
        """``law_support`` below the path count sets the law size."""
        d = tiny_benchmark_dict()
        d["analysis"]["law_support"] = 2048
        cfg = write_cfg(tmp_path, d)
        out = tmp_path / "o"
        code = main(["apscan", "--config", str(cfg), "--paths", "2100", "--out", str(out)])
        assert code == 0
        assert (out / "apscan_report.json").exists()


class TestCliArtifacts:
    def test_check_report_exact_values(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["check", "--preset", "example41", "--out", str(out)])
        rep = json.loads((out / "condition_report.json").read_text(encoding="utf-8"))
        assert rep["lhs"] == "5/12"
        assert rep["threshold_existence"] == "4"
        assert rep["threshold_distribution"] == "2"
        assert rep["eta"] == "5/48"
        assert rep["eta_float"] == pytest.approx(5 / 48, abs=1e-15)
        assert rep["verdict_existence"] is True
        assert rep["verdict_distribution"] is True
        assert rep["schema_version"] == 2

    def test_csv_stride_respected(self, tmp_path, capsys):
        d = tiny_benchmark_dict()
        d["numerics"]["csv_stride"] = 4
        cfg = write_cfg(tmp_path, d)
        out = tmp_path / "out"
        main(["picard", "--config", str(cfg), "--out", str(out)])
        lines = read_lines(out / "ensemble.csv")
        # grid indices 0,4,...,96 -> 25 times x 8 paths
        assert len(lines) == 1 + 25 * 8

    def test_picard_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tiny_benchmark_dict())
        out = tmp_path / "out"
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
        for name in (
            "condition_report.json",
            "gap_trace.jsonl",
            "ensemble.csv",
            "run_meta.json",
        ):
            assert (out / name).exists()
        trace = read_jsonl(out / "gap_trace.jsonl")
        assert trace, "gap trace must not be empty"
        for i, rec in enumerate(trace):
            assert set(rec) == {"k", "gap", "sup_second_moment", "wall_ms"}
            assert rec["k"] == i + 1
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["converged"] is True
        assert meta["iterations"] == len(trace)
        assert meta["final_gap"] == trace[-1]["gap"]
        assert meta["tail_report"]["truncation"] == 0.5
        for rec in meta["gap_trace"]:
            assert "wall_ms" not in rec
        assert meta["gap_trace"] == _strip_wall(trace)

    def test_simulate_artifacts(self, tmp_path, capsys):
        """The simulated path ensemble: ``picard`` writes every path at
        every grid time, echoes the config and prints the moment."""
        cfg = write_cfg(tmp_path, tiny_benchmark_dict())
        out = tmp_path / "out"
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
        lines = read_lines(out / "ensemble.csv")
        assert lines[0] == "t,path,y0,y1"
        # 97 grid points x 8 paths at stride 1
        assert len(lines) == 1 + 97 * 8
        first = lines[1].split(",")
        assert first[0] == "-1.0" and first[1] == "0"
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["schema_version"] == 2
        assert meta["csv_stride"] == 1
        assert meta["config"]["numerics"]["h"] == "1/32"
        moment = meta["sup_second_moment"]
        assert f"sup second moment {moment:.6g}" in capsys.readouterr().out

    def test_dt_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tiny_benchmark_dict())
        out = tmp_path / "out"
        main(["picard", "--config", str(cfg), "--dt", "1/16", "--out", str(out)])
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["numerics"]["h"] == "1/16"
        lines = read_lines(out / "ensemble.csv")
        assert len(lines) == 1 + 49 * 8

    def test_apscan_report_schema(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tiny_benchmark_dict())
        out = tmp_path / "out"
        assert main(["apscan", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "apscan_report.json").read_text(encoding="utf-8"))
        assert set(rep) == {
            "schema_version",
            "epsilon",
            "shifts",
            "accepted_count",
            "max_gap",
        }
        assert rep["epsilon"] == 0.5
        assert len(rep["shifts"]) == 1
        entry = rep["shifts"][0]
        assert set(entry) == {"s", "sup_beta", "accepted"}
        assert entry["s"] == 0.25
        assert entry["sup_beta"] >= 0.0
        assert rep["accepted_count"] == sum(e["accepted"] for e in rep["shifts"])
        if rep["accepted_count"]:
            assert rep["max_gap"] is not None
        else:
            assert rep["max_gap"] is None
        text = capsys.readouterr().out
        assert ("ACCEPT" in text) or ("reject" in text)

    def test_apscan_time_near_a_grid_point(self, tmp_path, capsys):
        """Grid membership is exact: a time 1.2e-9 off step -48 is off the
        grid, so ``apscan`` exits 2 naming it before it writes anything."""
        d = {
            "preset": "example41",
            "numerics": {"h": "1/32", "window": [-2, 2], "n_paths": 4, "truncation": "1/2"},
            "analysis": {"epsilon": 0.25, "shifts": ["1/4"], "times": [-1.4999999988]},
        }
        out = tmp_path / "o"
        code = main(["apscan", "--config", str(write_cfg(tmp_path, d)), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: analysis.times[0] = -1.4999999988 is not a multiple of the step h = 0.03125\n"
        )
        assert not out.exists()

    def test_apscan_requires_analysis(self, tmp_path, capsys):
        """A config with no scan passes ``check`` and ``picard``;
        ``apscan`` rejects it before it writes anything.  Times without
        shifts are rejected by every command
        (``test_times_and_shifts_come_together``)."""
        d = tiny_benchmark_dict()
        d["analysis"] = {"epsilon": 0.5}
        cfg = write_cfg(tmp_path, d)
        code = main(["apscan", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: apscan needs analysis.times and analysis.shifts\n"
        )
        assert not (tmp_path / "o").exists()

    def test_stage_times_script_times_every_stage(self, tmp_path):
        """``scripts/stage_times.py`` finds each stage where the commands
        look it up: an ``apscan`` calls each once per run, each stage's
        wall and CPU seconds are within ``main``'s, and the iteration
        times are those of the run's gap trace.  The peak resident set
        after each stage of the first run only rises, stage by stage."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "stage_times.py"
        cfg = write_cfg(tmp_path, tiny_benchmark_dict())
        env = dict(os.environ, PYTHONPATH=str(Path(levyap.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, str(script), "--runs", "2", "--", "apscan", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=300, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["exit_codes"] == [0, 0]
        assert set(report["stages"]) == {
            "sample_noise", "picard_solve", "_write_ensemble_csv", "ap_distribution_scan",
        }
        for stage in report["stages"].values():
            assert stage["calls"] == 1 and 0 < stage["median_s"] < report["main_s"]
            assert 0 <= stage["median_cpu_s"] < report["main_cpu_s"]
        hwm = [stage["vm_hwm_mb"] for stage in report["stages"].values()]
        if os.path.exists("/proc/self/status"):
            assert 0 < hwm[0] and hwm == sorted(hwm)
        else:
            assert hwm == [None] * len(hwm)
        assert report["iteration_wall_ms"] and min(report["iteration_wall_ms"]) >= 0
        assert not any(tmp_path.glob("levyap_out*"))

    def test_compare_artifacts_script_reports_every_difference(
        self, tmp_path, monkeypatch, capsys
    ):
        """``scripts/compare_artifacts.py`` passes a tree against itself;
        against a changed tree it names every run that differs before it
        exits 1.  Between output directories it ignores ``wall_ms`` in the
        gap trace only, and names every changed artifact, with the key
        paths at which a JSON artifact differs, and every one that a
        single tree writes."""
        import shutil

        corpus = len(compare_artifacts.rejected())
        assert len(compare_artifacts.runs()) == (
            3 * 3 * 2 * 2 + 2 * 2 + 2 + 2 + 2 + 2 + 1 + 3 * 2 + corpus
        )

        src = Path(levyap.__file__).parents[1]
        changed = tmp_path / "changed"
        shutil.copytree(src / "levyap", changed / "levyap")
        cli = changed / "levyap" / "cli.py"
        cli.write_text(cli.read_text().replace("existence verdict:", "existence  verdict:"))
        argvs = [["check", "--preset", name] for name in ("example41", "ou_forced")]
        monkeypatch.setattr(compare_artifacts, "runs", lambda: argvs)
        assert compare_artifacts.main([str(src), str(src)]) == 0
        capsys.readouterr()
        assert compare_artifacts.main([str(src), str(changed)]) == 1
        out = capsys.readouterr().out
        for argv in argvs:
            assert f"DIFFER  {' '.join(argv)}: stdout\n" in out
        assert out.endswith("2 of 2 runs differ\n")

        old, new = tmp_path / "old", tmp_path / "new"
        for out, wall in ((old, 1.5), (new, 2.5)):
            out.mkdir()
            (out / "gap_trace.jsonl").write_text(json.dumps({"k": 1, "wall_ms": wall}) + "\n")
            (out / "ensemble.csv").write_text("t,path,y0\n0.0,0,1.0\n")
        assert compare_artifacts.artifact_differences(old, new) == []
        (new / "ensemble.csv").write_text("t,path,y0\n0.0,0,1.5\n")
        assert compare_artifacts.artifact_differences(old, new) == [
            "ensemble.csv differs",
            "ensemble.csv values move by up to 0.5",
        ]
        (old / "run_meta.json").write_text("{}")
        (new / "gap_trace.jsonl").write_text(json.dumps({"k": 2, "wall_ms": 1.5}) + "\n")
        assert compare_artifacts.artifact_differences(old, new) == [
            "ensemble.csv differs",
            "ensemble.csv values move by up to 0.5",
            "gap_trace.jsonl differs outside wall_ms",
            "run_meta.json is written by one tree only",
        ]
        # a JSON artifact names each key path that differs: a key one
        # tree lacks and a changed value inside a list; equal values in
        # other bytes name the file alone
        meta = {"config": {"seed": 1, "threads": 2}, "gap_trace": [{"gap": 1.0}, {"gap": 0.5}]}
        (old / "run_meta.json").write_text(json.dumps(meta))
        meta = {"config": {"seed": 1}, "gap_trace": [{"gap": 1.0}, {"gap": 0.25}]}
        (new / "run_meta.json").write_text(json.dumps(meta))
        (old / "condition_report.json").write_text('{"k": "1"}')
        (new / "condition_report.json").write_text('{"k":"1"}')
        assert compare_artifacts.artifact_differences(old, new) == [
            "condition_report.json differs",
            "ensemble.csv differs",
            "ensemble.csv values move by up to 0.5",
            "gap_trace.jsonl differs outside wall_ms",
            "run_meta.json: config.threads, gap_trace[1].gap",
        ]

    def test_compare_artifacts_reports_values_of_changed_files_only(
        self, tmp_path, monkeypatch, capsys
    ):
        """A run whose ``ensemble.csv`` is byte-identical in both trees and
        whose ``apscan_report.json`` differs in one ``sup_beta`` is
        reported with that key path and the shifts' moves alone: an
        unchanged file gets no value change line."""
        trees = []
        for side in ("old", "new"):
            (tmp_path / side / "levyap").mkdir(parents=True)
            (tmp_path / side / "levyap" / "__init__.py").write_text("")
            trees.append(str(tmp_path / side))
        betas = {"old": (0.5, 0.25), "new": (0.5, 0.125)}

        def run(src, argv, out):
            out.mkdir()
            (out / "ensemble.csv").write_text("t,path,y0\n0.0,0,1.0\n")
            shifts = [{"s": s, "sup_beta": b} for s, b in zip((0.5, 1.0), betas[src.name])]
            (out / "apscan_report.json").write_text(json.dumps({"shifts": shifts}))
            return {"exit code": 0, "stdout": "", "stderr": ""}

        monkeypatch.setattr(compare_artifacts, "runs", lambda: [["apscan"]])
        monkeypatch.setattr(compare_artifacts, "run", run)
        assert compare_artifacts.main(trees) == 1
        assert capsys.readouterr().out == (
            "DIFFER  apscan: apscan_report.json: shifts[1].sup_beta; sup_beta moves by 0, 0.125\n"
            "1 of 1 runs differ\n"
        )

    def test_custom_block_restates_the_ou_preset(self, tmp_path, capsys):
        """A preset states its coefficients in the term lists any config
        writes.  The ou_forced set written out by hand
        (``signal_dict("s1")``, the block docs/configuration.md shows)
        gives the preset's ensemble and condition report byte for byte."""
        outs = []
        for name, data in (("preset", tiny_ou_dict()), ("custom", signal_dict("s1"))):
            cfg = write_cfg(tmp_path, data, f"{name}.json")
            outs.append(tmp_path / name)
            assert main(["picard", "--config", str(cfg), "--out", str(outs[-1])]) == 0
        for name in ("ensemble.csv", "condition_report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_galerkin_artifacts(self, tmp_path, capsys):
        """``picard`` on a spectral truncation writes the four picard
        artifacts, with the system's exact constants in the condition
        report (the fit of them is a test oracle,
        ``tests/_dichotomy_oracles.py``)."""
        cfg = write_cfg(tmp_path, tiny_galerkin_dict())
        out = tmp_path / "out"
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "condition_report.json",
            "ensemble.csv",
            "gap_trace.jsonl",
            "run_meta.json",
        ]
        rep = json.loads((out / "condition_report.json").read_text(encoding="utf-8"))
        assert (rep["k"], rep["omega"]) == ("1", "3/2")
        assert read_lines(out / "ensemble.csv")[0] == "t,path,y0,y1,y2"


# ---------------------------------------------------------------------------
# CLI: determinism
# ---------------------------------------------------------------------------


class TestOneBuildPerRun:
    """``validate_config`` builds the system, the noise spec and the
    coefficient set, and every command runs on what it built."""

    BUILDERS = ("build_system", "build_spec", "build_coefficients")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--preset", "example41"],
            ["picard", "--preset", "example41", "--paths", "4"],
            ["apscan", "--preset", "example41", "--paths", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_builder_runs_once(self, tmp_path, capsys, monkeypatch, argv):
        calls = dict.fromkeys(self.BUILDERS, 0)
        for name in self.BUILDERS:
            def counted(*args, _name=name, _fn=getattr(levyap.config, name)):
                calls[_name] += 1
                return _fn(*args)

            # wherever a builder is looked up, so that no call goes uncounted
            for module in (levyap.config, levyap.cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        assert main([*argv, "--out", str(tmp_path / "o")]) in (0, 1)
        assert calls == dict.fromkeys(self.BUILDERS, 1)


class TestCliDeterminism:
    def run_picard(self, tmp_path, name, extra=()):
        cfg = write_cfg(tmp_path, tiny_benchmark_dict(), name=f"{name}.json")
        out = tmp_path / name
        code = main(["picard", "--config", str(cfg), "--out", str(out), *extra])
        assert code == 0
        return out

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        out1 = self.run_picard(tmp_path, "run1")
        out2 = self.run_picard(tmp_path, "run2")
        for name in ("ensemble.csv", "condition_report.json", "run_meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert _strip_wall(read_jsonl(out1 / "gap_trace.jsonl")) == _strip_wall(
            read_jsonl(out2 / "gap_trace.jsonl")
        )

    def test_thread_count_does_not_change_results(self, tmp_path, capsys):
        base = self.run_picard(tmp_path, "t1")
        for threads in ("4", "8"):
            out = self.run_picard(tmp_path, f"t{threads}", ("--threads", threads))
            for name in ("ensemble.csv", "condition_report.json", "run_meta.json"):
                assert (base / name).read_bytes() == (out / name).read_bytes(), name
            assert _strip_wall(read_jsonl(base / "gap_trace.jsonl")) == _strip_wall(
                read_jsonl(out / "gap_trace.jsonl")
            )

    def test_ensemble_csv_rows_are_float_reprs(self, tmp_path, monkeypatch):
        for m, n_steps, d, stride, chunk, zero, blocks in [
            (3, 6, 2, 2, None, None, 1),
            # 30000 rows of 3 paths: blocks of 2730 grid points (8190
            # rows), the last one 2700 grid points, ending mid-grid
            (3, 29_999, 1, 1, None, None, 11),
            # stride 3 does not divide n_steps = 10; two grid points a block
            (3, 10, 3, 3, 6, None, 2),
            # the last coordinate is +0.0 throughout the first block and
            # holds one -0.0 in the second
            (3, 10, 3, 3, 6, (2, -0.0), 2),
            (1, 12, 3, 5, 2, None, 2),
            # more paths than a chunk: one grid point a block, formatted
            # in two chunks
            (5, 9, 1, 2, 4, None, 5),
            # galerkin_heat's row shape: 8 coordinates, the fifth +0.0
            # throughout, formatted as any held coordinate is
            (4, 7, 8, 1, 12, (4, 0.0), 3),
        ]:
            gen = np.random.default_rng(3)
            shape = (m, n_steps + 1, d)
            values = gen.normal(size=shape) * 10.0 ** gen.integers(-20, 20, size=shape)
            written = values[:, ::stride, :]
            written.flat[: len(CSV_SPECIAL_FLOATS)] = CSV_SPECIAL_FLOATS
            if zero is not None:
                i, last = zero
                values[:, :, i] = 0.0
                written[-1, -1, i] = last
            ens = PathEnsemble(h=0.25, k_lo=-3, values=values, dim=d, coords=range(d))
            path = tmp_path / "ens.csv"
            n_rows = m * len(range(0, n_steps + 1, stride))
            with monkeypatch.context() as patch:
                sizes = count_formatted(patch, chunk)
                _write_ensemble_csv(path, ens, stride)
                assert_formatted_blocks(sizes, ens, n_rows, blocks)
            text = path.read_text(encoding="utf-8")
            assert text == per_row_ensemble_csv(ens, stride)
            assert text.count("\n") == 1 + n_rows
            for v in CSV_SPECIAL_REPRS if zero is None else ("1e-05", "1e+16", "-0.0"):
                assert f",{v}," in text or f",{v}\n" in text

    @pytest.mark.parametrize(
        "stride, chunk, blocks", [(1, 700, 5), (3, 700, 2), (2, 98, 15), (1, None, 1)]
    )
    def test_ensemble_csv_signed_zero_columns(self, tmp_path, monkeypatch, stride, chunk, blocks):
        """Columns of +0.0 and of -0.0 throughout, next to columns whose
        values repr in exponent form, byte for byte against the per-row
        oracle: in one block, and in blocks that end mid-grid, every
        grid point or every stride-th."""
        sizes = count_formatted(monkeypatch, chunk)
        m, n_steps = 7, 401
        gen = np.random.default_rng(11)
        values = np.empty((m, n_steps + 1, 4))
        values[:, :, 0] = gen.normal(size=(m, n_steps + 1))
        values[:, :, 1] = 0.0
        values[:, :, 2] = -0.0
        values[:, :, 3] = gen.choice([1e-05, 1e16, -2.5e-310, 1e22], size=(m, n_steps + 1))
        ens = PathEnsemble(h=1 / 64, k_lo=-128, values=values, dim=4, coords=range(4))
        path = tmp_path / "ens.csv"
        _write_ensemble_csv(path, ens, stride)
        text = path.read_text(encoding="utf-8")
        assert text == per_row_ensemble_csv(ens, stride)
        rows = text.splitlines()[1:]
        assert len(rows) == m * len(range(0, n_steps + 1, stride))
        assert_formatted_blocks(sizes, ens, len(rows), blocks)
        assert all(row.split(",")[3:5] == ["0.0", "-0.0"] for row in rows)
        assert {"1e-05", "1e+16", "1e+22"} <= {row.split(",")[5] for row in rows}

    def test_ensemble_csv_writes_unheld_coordinates_as_zero(self, tmp_path, monkeypatch):
        """An ensemble that holds coordinates 1 and 3 of 5, as a solve
        holds the coordinates S reaches: each coordinate it does not hold
        is written as one ``0.0`` word, byte for byte
        against the per-row oracle on the dense states, and only the held
        ones are formatted."""
        sizes = count_formatted(monkeypatch, None)
        gen = np.random.default_rng(7)
        values = gen.normal(size=(5, 41, 2))
        ens = PathEnsemble(h=1 / 8, k_lo=-16, values=values, dim=5, coords=(1, 3))
        path = tmp_path / "ens.csv"
        _write_ensemble_csv(path, ens, 2)
        text = path.read_text(encoding="utf-8")
        assert text == per_row_ensemble_csv(ens, 2)
        rows = text.splitlines()[1:]
        assert_formatted_blocks(sizes, ens, len(rows), 1)
        assert all([row.split(",")[i] for i in (2, 4, 6)] == ["0.0"] * 3 for row in rows)

    def test_ensemble_csv_working_set_is_bounded(self, tmp_path, monkeypatch):
        """The writer holds one block's strings at a time: four times the
        grid points, and so four times the rows and blocks, raise its
        traced peak by less than a fixed 32 KiB."""
        import tracemalloc

        sizes = count_formatted(monkeypatch, 2048)
        gen = np.random.default_rng(5)
        peaks = []
        for n_points, blocks in ((2_000, 16), (8_000, 63)):
            sizes.clear()
            ens = PathEnsemble(
                h=1 / 256, k_lo=0, values=gen.normal(size=(16, n_points, 2)), dim=2, coords=(0, 1)
            )
            tracemalloc.start()
            try:
                _write_ensemble_csv(tmp_path / "ens.csv", ens, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert_formatted_blocks(sizes, ens, 16 * n_points, blocks)
        assert peaks[1] - peaks[0] < 32 * 1024, peaks

    def test_check_loads_no_heavy_scipy_modules(self, tmp_path):
        """``check`` is the start-up path: importing the CLI and checking
        any shipped preset loads no scipy module at all.  The presets'
        systems are diagonal, so their constants are certified exactly
        and no matrix exponential is taken.  ``picard`` and ``apscan``
        of example41 and ou_forced load none either: their
        propagators and kernels are closed forms, their reduced
        propagators their own Schur forms, and their laws vary in one
        coordinate."""
        cfgs = [
            str(write_cfg(tmp_path, data, name=f"{name}.json"))
            for name, data in (("ex41", tiny_benchmark_dict()), ("ou", tiny_ou_dict()))
        ]
        runs = [
            [command, "--config", cfg, "--out", f"{cfg[:-5]}-{command}", "--threads", "2"]
            for cfg in cfgs
            for command in ("picard", "apscan")
        ]
        steps = modules_after(check_every_preset(tmp_path) + runs, ["scipy.*"])
        assert steps == [(None, [])] + [(0, [])] * (len(preset_names()) + len(runs))

    BENCHMARK_ARGS = ("--seed", "41", "--threads", "2")

    def benchmark_checks(self, tmp_path):
        """The ``check`` argv, at ``BENCHMARK_ARGS``, of every shipped
        preset, of the ``apscan-ex41`` scan config and of example41 at
        the fine step: the set-up runs the benchmark times."""
        scan = {
            "preset": "example41",
            "analysis": {
                "epsilon": 0.25,
                "shifts": ["1/4", "1/2", "3/4", 1],
                "times": [0, "1/4", "1/2", "3/4", 1],
                "law_support": 24,
            },
        }
        return check_every_preset(tmp_path, self.BENCHMARK_ARGS) + [
            ["check", "--config", str(write_cfg(tmp_path, scan, name="scan.json")), "--out",
             str(tmp_path / "scan"), *self.BENCHMARK_ARGS],
            ["check", "--preset", "example41", "--dt", "1/1024", "--paths", "1024", "--out",
             str(tmp_path / "fine"), *self.BENCHMARK_ARGS],
        ]

    def test_check_loads_neither_dataclasses_nor_inspect(self, tmp_path):
        """No levyap record is a dataclass, so neither importing the CLI
        nor any set-up run the benchmark times loads ``dataclasses`` or
        the ``inspect`` module it imports."""
        runs = self.benchmark_checks(tmp_path)
        steps = modules_after(runs, ["dataclasses", "inspect"])
        assert steps == [(None, [])] + [(0, [])] * len(runs)

    def test_check_runs_no_numpy_code(self, tmp_path):
        """``check`` is the set-up run the benchmark times: importing the
        CLI and checking, at ``--seed 41 --threads 2``, every shipped
        preset, the ``apscan-ex41`` scan config and example41 at the fine
        step run no numpy code.  Their systems and covariances are
        diagonal, so they are certified exactly and no array is built;
        ``numpy`` may stand in ``sys.modules`` as a lazy module, but none
        of its submodules is loaded.  A system that is not diagonal gets
        the floating-point checks, and loads numpy."""
        coupled = {
            "preset": "example41",
            "system": {"a": [[-6, 1], [0, -6]], "p": [[1, 0], [0, 1]], "k": 1, "omega": 5},
        }
        runs = self.benchmark_checks(tmp_path) + [
            ["check", "--config", str(write_cfg(tmp_path, coupled, name="coupled.json")), "--out",
             str(tmp_path / "coupled"), *self.BENCHMARK_ARGS],
        ]
        steps = modules_after(runs, ["numpy.*"])
        submodules = [(code, [m for m in loaded if m != "numpy"]) for code, loaded in steps]
        assert submodules[:-1] == [(None, [])] + [(0, [])] * (len(preset_names()) + 2)
        code, loaded = submodules[-1]
        assert code == 0 and "numpy.linalg" in loaded

    def test_check_does_not_load_the_csv_formatter(self, tmp_path):
        """The CSV writer imports its float formatter, and builds its
        tables, only when it writes: importing the CLI and checking every
        shipped preset leaves ``levyap._floatfmt`` unloaded, and the first
        ``picard`` loads it."""
        cfg = str(write_cfg(tmp_path, tiny_benchmark_dict(), name="ex41.json"))
        picard = ["picard", "--config", cfg, "--out", cfg[:-5]]
        steps = modules_after(check_every_preset(tmp_path) + [picard], ["levyap._floatfmt"])
        assert steps == (
            [(None, [])] + [(0, [])] * len(preset_names()) + [(0, ["levyap._floatfmt"])]
        )

    def test_check_does_not_load_the_thread_pool(self, tmp_path):
        """The Picard solve imports ``concurrent.futures`` only when it
        starts worker threads: importing the CLI and checking every
        shipped preset leave it unloaded, so the start-up time does not
        pay for it, and a ``picard`` at ``--threads 2`` loads it (its 70
        paths are two blocks)."""
        cfg = str(write_cfg(tmp_path, tiny_benchmark_dict(), name="ex41.json"))
        picard = ["picard", "--config", cfg, "--out", cfg[:-5], "--threads", "2", "--paths", "70"]
        checks = check_every_preset(tmp_path, extra=("--threads", "2"))
        steps = modules_after(checks + [picard], ["concurrent.futures"])
        assert steps == (
            [(None, [])] + [(0, [])] * len(preset_names()) + [(0, ["concurrent.futures"])]
        )

    def test_check_loads_neither_the_solver_nor_the_scan(self, tmp_path):
        """``check`` evaluates the conditions without the solver or the
        scan: importing the CLI and checking every shipped preset loads
        neither ``levyap.solver`` nor ``levyap.apdist``.  ``picard``
        loads the solver but not the scan, and ``apscan`` loads both."""
        cfg = str(write_cfg(tmp_path, tiny_benchmark_dict(), name="ex41.json"))
        runs = [
            [command, "--config", cfg, "--out", f"{cfg[:-5]}-{command}"]
            for command in ("picard", "apscan")
        ]
        names = ["levyap.apdist", "levyap.solver"]
        steps = modules_after(check_every_preset(tmp_path) + runs, names)
        assert steps == (
            [(None, [])] + [(0, [])] * len(preset_names()) + [(0, ["levyap.solver"]), (0, names)]
        )

    def test_line_scans_do_not_import_scipy_optimize(self, tmp_path):
        """example41's laws vary in one coordinate and ou_forced's are 1-d,
        so the line solver compares them and their scans never import
        ``scipy.optimize``; a galerkin_heat scan still gets its certified
        values from HiGHS."""
        galerkin = tiny_galerkin_dict()
        galerkin["analysis"] = {"epsilon": 0.5, "shifts": [1], "times": [0, 1], "law_support": 12}
        cfgs = [
            write_cfg(tmp_path, data, name=f"{name}.json")
            for name, data in (
                ("ex41", tiny_benchmark_dict()),
                ("ou", tiny_ou_dict()),
                ("gal", galerkin),
            )
        ]
        code = (
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "from levyap.cli import main\n"
            f"for cfg in {[str(c) for c in cfgs]!r}:\n"
            "    out = cfg[:-5]\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert main(['apscan', '--config', cfg, '--out', out]) == 0\n"
            "    rep = json.load(open(out + '/apscan_report.json'))\n"
            "    print(rep['shifts'][0]['sup_beta'], 'scipy.optimize' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(levyap.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        lines = [line.split() for line in proc.stdout.strip().splitlines()]
        assert [loaded for _, loaded in lines] == ["False", "False", "True"]
        assert all(0.0 < float(value) <= 2.0 for value, _ in lines)

    @pytest.mark.skipif(
        not Path("/proc/self/task").is_dir(), reason="counts threads in Linux's /proc/self/task"
    )
    @pytest.mark.parametrize("given", [None, "2"])
    def test_workers_are_the_only_threads(self, tmp_path, given):
        """``main`` starts OpenBLAS with no thread pool, numpy's in an
        example41 ``picard`` and scipy's in a galerkin_heat scan: once
        their ``--threads 2`` workers have ended, the process is down to
        its one thread.  An ``OPENBLAS_NUM_THREADS`` the caller gives is
        kept, and then the pools start as OpenBLAS decides."""
        galerkin = tiny_galerkin_dict()
        galerkin["analysis"] = {"epsilon": 0.5, "shifts": [1], "times": [0, 1]}
        runs = [
            ["picard", "--config", str(write_cfg(tmp_path, tiny_benchmark_dict(), "ex41.json")),
             "--paths", "40", "--threads", "2", "--out", str(tmp_path / "ex41")],
            ["apscan", "--config", str(write_cfg(tmp_path, galerkin, "gal.json")),
             "--threads", "2", "--out", str(tmp_path / "gal")],
        ]
        code = (
            "import io, os\n"
            "from contextlib import redirect_stdout\n"
            "from levyap.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "    print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(levyap.__file__).parents[1])
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        steps = [line.split() for line in proc.stdout.splitlines()]
        if given is None:
            assert steps == [["1", "1"], ["1", "1"]]
        else:
            assert [value for _, value in steps] == [given, given]
            if len(os.sched_getaffinity(0)) >= 2:  # a pool of two: the count sees it
                assert int(steps[-1][0]) > 1

    def test_seed_changes_results(self, tmp_path, capsys):
        base = self.run_picard(tmp_path, "s0")
        other = self.run_picard(tmp_path, "s1", ("--seed", "123"))
        assert (base / "ensemble.csv").read_bytes() != (
            other / "ensemble.csv"
        ).read_bytes()

    def test_apscan_report_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tiny_benchmark_dict())
        outs = []
        for name in ("a1", "a2"):
            out = tmp_path / name
            assert main(["apscan", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "apscan_report.json").read_bytes() == (
            outs[1] / "apscan_report.json"
        ).read_bytes()
