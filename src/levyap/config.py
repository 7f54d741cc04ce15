"""Run configuration: one field table per config section, which states
each key, codec and default once and from which the section's record
type (a namedtuple over its keys) is generated; the tables drive the
JSON parse, the JSON echo and the rejection of unknown keys.  Also the
named presets, config files ``presets/NAME.json`` read like any other,
the builders that turn a config into the systems, noise specs and
coefficient sets the solver consumes, the validation that builds
them once for a run (``validate_config``), and the exact contraction
conditions of the paper that ``levyap check`` evaluates.

Numbers anywhere in a config may be written as JSON numbers or as exact
rational strings "p/q", each with a finite double value; rationals
survive serialize/parse round trips unchanged, so condition checks stay
exact end to end.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from numbers import Rational
from typing import Optional, Union

from . import SUPPORT_CAP, LevyapError
from .coefficients import KERNELS, CoefficientError, CoefficientSet, CoefficientTerm, QuasiPeriodicSignal
from .dichotomy import DichotomousSystem, diagonal_constants
from .noise import (
    JumpComponent,
    LevyProcessSpec,
    NoiseSpecError,
    PointMark,
    UniformAnnulusMark,
    UniformIntervalMark,
    validate_spec,
)

__all__ = [
    "ConfigError",
    "Number",
    "MarkConfig",
    "JumpConfig",
    "LevyConfig",
    "SystemConfig",
    "TermConfig",
    "CoefficientConfig",
    "NumericsConfig",
    "AnalysisConfig",
    "RunConfig",
    "Codec",
    "Field",
    "FIELD_TABLES",
    "parse_number",
    "number_to_json",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "preset_names",
    "preset_config",
    "build_system",
    "build_spec",
    "build_coefficients",
    "Run",
    "ConditionReport",
    "check_conditions",
    "validate_config",
]

Number = Union[int, float, Fraction]


class ConfigError(ValueError, LevyapError):
    """Raised on malformed or inconsistent run configurations."""


# ---------------------------------------------------------------------------
# numbers: exact rationals in JSON
# ---------------------------------------------------------------------------


def parse_number(obj, name: str) -> Number:
    """Accept ints, floats, Fractions and exact rational strings "p/q"
    that have a finite double value, which the solve and the scan need."""
    if isinstance(obj, bool):
        raise ConfigError(f"{name}: expected a number, got a boolean")
    if isinstance(obj, str):
        try:
            value = Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{name}: bad rational literal {obj!r}") from exc
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"{name}: {obj!r} is too large for a float") from None
        return value
    if not isinstance(obj, (int, float, Fraction)):
        raise ConfigError(f"{name}: expected a number or 'p/q' string, got {obj!r}")
    try:
        finite = math.isfinite(obj)
    except OverflowError:  # an int or Fraction past the largest double
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number")
    return obj


def number_to_json(x: Number):
    if isinstance(x, bool):
        raise ConfigError("booleans are not config numbers")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def _as_fraction(value, name: str) -> Fraction:
    """Exact rational view of the input; floats convert exactly."""
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite")
        return Fraction(value)
    raise ConfigError(f"{name} must be a rational number or float, got {value!r}")


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _exact_matrix(m: tuple[tuple[Number, ...], ...], name: str) -> list[list[Fraction]]:
    return [
        [_as_fraction(v, f"{name}[{i}][{j}]") for j, v in enumerate(row)]
        for i, row in enumerate(m)
    ]


# ---------------------------------------------------------------------------
# field tables: one row per key drives the section's record type, the
# parse, the echo and unknown-key rejection
# ---------------------------------------------------------------------------

_REQUIRED = object()

Codec = namedtuple("Codec", "parse write")
Codec.__doc__ = """Reads one JSON value (``parse(obj, path)``) and writes it back."""

Field = namedtuple("Field", "key codec default echo_default", defaults=(_REQUIRED, False))
Field.__doc__ = """One key of a config section.

``default`` is ``_REQUIRED`` for a required key.  A JSON null on a key
whose default is None reads as absent.  The echo leaves out an optional
key holding its default unless ``echo_default`` is set.
"""


def _record(name: str, fields: tuple[Field, ...]) -> type:
    """The record type of a section: a namedtuple over the table's keys in
    table order, whose trailing optional keys take their defaults."""
    defaults = []
    for f in reversed(fields):
        if f.default is _REQUIRED:
            break
        defaults.insert(0, f.default)
    return namedtuple(name, [f.key for f in fields], defaults=defaults)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object, got {obj!r}")
    return obj


def _as_list(obj, path: str):
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {obj!r}")
    return obj


def _parse_int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {obj!r}")
    return obj


def _parse_str(obj, path: str) -> str:
    if not isinstance(obj, str):
        raise ConfigError(f"{path}: expected a string, got {obj!r}")
    return obj


def _parse_fields(obj, path: str, fields: tuple[Field, ...]) -> dict:
    obj = _as_object(obj, path)
    known = [f.key for f in fields]
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(
            f"{', '.join(_join(path, k) for k in unknown)}: unknown "
            f"key{'s' if len(unknown) > 1 else ''}; known keys: {', '.join(known)}"
        )
    out = {}
    for f in fields:
        value = obj.get(f.key)
        if value is None and (f.key not in obj or f.default is None):
            if f.default is _REQUIRED:
                raise ConfigError(f"{_join(path, f.key)}: required key is missing")
            out[f.key] = f.default
        else:
            out[f.key] = f.codec.parse(value, _join(path, f.key))
    return out


def _write_fields(value, fields: tuple[Field, ...]) -> dict:
    out = {}
    for f in fields:
        v = getattr(value, f.key)
        if f.default is _REQUIRED or f.echo_default or v != f.default:
            out[f.key] = f.codec.write(v)
    return out


def _section(cls, fields: tuple[Field, ...]) -> Codec:
    return Codec(
        lambda obj, path: cls(**_parse_fields(obj, path, fields)),
        lambda value: _write_fields(value, fields),
    )


def _list_of(item: Codec, nonempty: bool = False) -> Codec:
    def parse(obj, path):
        items = _as_list(obj, path)
        if nonempty and not items:
            raise ConfigError(f"{path}: expected a non-empty list")
        return tuple(item.parse(v, f"{path}[{i}]") for i, v in enumerate(items))

    return Codec(parse, lambda values: [item.write(v) for v in values])


def _parse_window(obj, path: str) -> tuple[Number, Number]:
    pair = _NUMBERS.parse(obj, path)
    if len(pair) != 2:
        raise ConfigError(f"{path}: expected [t_lo, t_hi]")
    return pair


def _parse_matrix(obj, path: str) -> tuple[tuple[Number, ...], ...]:
    rows = _ROWS.parse(obj, path)
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ConfigError(
                f"{path}[{i}]: {len(row)} entries where {path}[0] has "
                f"{len(rows[0])}; the rows of a matrix must have equal length"
            )
    return rows


def _parse_marks(obj, path: str) -> MarkConfig:
    kind = _as_object(obj, path).get("kind")
    if kind is None:
        raise ConfigError(f"{path}.kind: required key is missing")
    if _parse_str(kind, f"{path}.kind") not in _MARK_FIELDS:
        raise ConfigError(
            f"{path}.kind: unknown mark kind {kind!r}; known: {', '.join(_MARK_FIELDS)}"
        )
    return MarkConfig(**_parse_fields(obj, path, _MARK_FIELDS[kind]))


_NUMBER = Codec(parse_number, number_to_json)
_INT = Codec(_parse_int, lambda v: v)
_STR = Codec(_parse_str, lambda v: v)
_NUMBERS = _list_of(_NUMBER)
_ROWS = _list_of(_NUMBERS, nonempty=True)
_MATRIX = Codec(_parse_matrix, _ROWS.write)
_WINDOW = Codec(_parse_window, _NUMBERS.write)

_SYSTEM_FIELDS = (
    Field("a", _MATRIX),
    Field("p", _MATRIX),
    Field("k", _NUMBER),
    Field("omega", _NUMBER),
)
SystemConfig = _record("SystemConfig", _SYSTEM_FIELDS)
_MARK_KIND = Field("kind", _STR)
_MARK_FIELDS = {
    "point": (_MARK_KIND, Field("x", _NUMBERS)),
    "uniform_interval": (_MARK_KIND, Field("a", _NUMBER), Field("b", _NUMBER)),
    # the annulus lies in R^levy.dim
    "uniform_annulus": (_MARK_KIND, Field("r0", _NUMBER), Field("r1", _NUMBER)),
}
# one record for every kind: the keys of all kinds, each but kind None
# when its kind lacks it
_MARK_KEYS = tuple(dict.fromkeys(f.key for t in _MARK_FIELDS.values() for f in t))
MarkConfig = namedtuple("MarkConfig", _MARK_KEYS, defaults=(None,) * (len(_MARK_KEYS) - 1))
_MARKS = Codec(_parse_marks, lambda m: _write_fields(m, _MARK_FIELDS[m.kind]))
_JUMP_FIELDS = (Field("rate", _NUMBER), Field("marks", _MARKS))
JumpConfig = _record("JumpConfig", _JUMP_FIELDS)
_LEVY_FIELDS = (
    Field("dim", _INT),
    Field("covariance", _MATRIX, None),
    Field("jumps", _list_of(_section(JumpConfig, _JUMP_FIELDS)), ()),
)
LevyConfig = _record("LevyConfig", _LEVY_FIELDS)
_TERM_FIELDS = (
    Field("scale", _NUMBER),
    Field("kernel", _STR),
    Field("coord", _INT, 0),
    Field("outer", _STR, None),
    Field("inner", _STR, None),
    Field("mark_weights", _NUMBERS, None),
)
TermConfig = _record("TermConfig", _TERM_FIELDS)
# one term list per state coordinate
_TERM_LISTS = _list_of(_list_of(_section(TermConfig, _TERM_FIELDS)))
# the maps take their state dimension from the system and their noise
# dimension from levy.dim
_COEFFICIENT_FIELDS = (
    Field("freqs", _NUMBERS),
    Field("drift", _TERM_LISTS),
    Field("diffusion", _list_of(_TERM_LISTS)),
    Field("jump_small", _TERM_LISTS),
    Field("jump_large", _TERM_LISTS),
    Field("lipschitz", _NUMBER),
)
CoefficientConfig = _record("CoefficientConfig", _COEFFICIENT_FIELDS)
_NUMERICS_FIELDS = (
    Field("h", _NUMBER),
    Field("window", _WINDOW),
    Field("n_paths", _INT),
    Field("truncation", _NUMBER, None),
    Field("tol", _NUMBER, 1e-10, echo_default=True),
    Field("max_iter", _INT, 60, echo_default=True),
    Field("csv_stride", _INT, None),
)
NumericsConfig = _record("NumericsConfig", _NUMERICS_FIELDS)
_ANALYSIS_FIELDS = (
    Field("epsilon", _NUMBER, 0.1, echo_default=True),
    Field("shifts", _NUMBERS, ()),
    Field("times", _NUMBERS, ()),
    Field("law_support", _INT, None),
)
AnalysisConfig = _record("AnalysisConfig", _ANALYSIS_FIELDS)
_RUN_FIELDS = (
    Field("system", _section(SystemConfig, _SYSTEM_FIELDS)),
    Field("levy", _section(LevyConfig, _LEVY_FIELDS)),
    Field("coefficients", _section(CoefficientConfig, _COEFFICIENT_FIELDS)),
    Field("numerics", _section(NumericsConfig, _NUMERICS_FIELDS)),
    Field("analysis", _section(AnalysisConfig, _ANALYSIS_FIELDS), AnalysisConfig(), echo_default=True),
    Field("seed", _INT, 0, echo_default=True),
)
RunConfig = _record("RunConfig", _RUN_FIELDS)
_RUN = _section(RunConfig, _RUN_FIELDS)

# every table by the key path of its section ([] marks a list item)
FIELD_TABLES: dict[str, tuple[Field, ...]] = {
    "": _RUN_FIELDS,
    "system": _SYSTEM_FIELDS,
    "levy": _LEVY_FIELDS,
    "levy.jumps[]": _JUMP_FIELDS,
    **{f"levy.jumps[].marks (kind {k})": t for k, t in _MARK_FIELDS.items()},
    "coefficients": _COEFFICIENT_FIELDS,
    "coefficients terms": _TERM_FIELDS,
    "numerics": _NUMERICS_FIELDS,
    "analysis": _ANALYSIS_FIELDS,
}


def config_from_dict(d: dict) -> RunConfig:
    """Parse a config mapping; a "preset" key loads that preset and any
    further top-level sections replace the preset's."""
    d = dict(_as_object(d, ""))
    if "preset" in d:
        base = preset_config(_parse_str(d.pop("preset"), "preset"))
        d = {**config_to_dict(base), **d}
    return _RUN.parse(d, "")


def config_to_dict(cfg: RunConfig) -> dict:
    return _RUN.write(cfg)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # bad syntax, bytes not UTF-8, too many digits or too deep nesting
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)

# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_system(cfg: SystemConfig) -> DichotomousSystem:
    """The configured system.

    A diagonal explicit system (A diagonal, P a diagonal of 0s and 1s) is
    held to its exact constants: a declared K below 1 or omega above the
    certified rate is a ConfigError naming ``system.k`` or
    ``system.omega``, and a rate that is not positive raises
    ``NoDichotomyError``.  That certificate implies every floating-point
    check of ``DichotomousSystem.create``, so the system is built
    unchecked and builds its arrays on first use.  Any other explicit
    system gets the float checks and the sampled
    ``spot_check_dichotomy`` of ``DichotomousSystem.create``.
    """
    if not (float(cfg.omega) > 0):
        raise ConfigError("system.omega must be positive")
    if not (float(cfg.k) > 0):
        raise ConfigError("system.k must be positive")
    exact = diagonal_constants(_exact_matrix(cfg.a, "system.a"), _exact_matrix(cfg.p, "system.p"))
    if exact is None:
        return DichotomousSystem.create(cfg.a, cfg.p, k=float(cfg.k), omega=float(cfg.omega))
    k, omega = exact
    if _as_fraction(cfg.k, "system.k") < k:
        raise ConfigError(
            f"system.k = {cfg.k} is below the certified K = {k} of this diagonal system"
        )
    if _as_fraction(cfg.omega, "system.omega") > omega:
        raise ConfigError(
            f"system.omega = {cfg.omega} is above the certified omega = {omega} "
            "of this diagonal system"
        )
    return DichotomousSystem(cfg.a, cfg.p, cfg.k, cfg.omega)


def _build_marks(
    m: MarkConfig, dim: int
) -> Union[PointMark, UniformIntervalMark, UniformAnnulusMark]:
    if m.kind == "point":
        return PointMark(tuple(float(v) for v in m.x))
    if m.kind == "uniform_interval":
        return UniformIntervalMark(float(m.a), float(m.b))
    return UniformAnnulusMark(float(m.r0), float(m.r1), dim)


def build_spec(cfg: LevyConfig) -> LevyProcessSpec:
    jumps = tuple(
        JumpComponent(rate=float(j.rate), marks=_build_marks(j.marks, cfg.dim))
        for j in cfg.jumps
    )
    return LevyProcessSpec(dim=cfg.dim, covariance=cfg.covariance, jumps=jumps)


def build_coefficients(cfg: CoefficientConfig, dim_state: int, dim_noise: int) -> CoefficientSet:
    """The configured coefficient set for a state in R^dim_state and a
    noise in R^dim_noise, the dimensions of the built system and of
    ``levy.dim``, to which the term lists are held.  A bad signal, or a
    term field that the term's value does not read, is a ConfigError
    naming its key path; the set's own errors are raised as ConfigErrors
    that name ``coefficients``."""
    freqs = tuple(float(v) for v in cfg.freqs)

    def _sig(expr: Optional[str], key: str):
        if expr is None:
            return None
        try:
            return QuasiPeriodicSignal.parse(expr, freqs)
        except LevyapError as exc:  # a signal that does not parse or is unbounded
            raise ConfigError(f"{key}: {exc}") from None

    def _term(t: TermConfig, key: str, jump: bool) -> CoefficientTerm:
        kernel = KERNELS.get(t.kernel)
        if t.inner is not None and kernel is not None and not kernel.needs_inner:
            raise ConfigError(f"{key}.inner: kernel {t.kernel!r} reads no inner signal")
        if t.coord != 0 and t.kernel == "const":
            raise ConfigError(f"{key}.coord: kernel 'const' reads no state coordinate")
        if t.mark_weights is not None and not jump:
            raise ConfigError(f"{key}.mark_weights: only jump terms take mark weights")
        return CoefficientTerm(
            scale=float(t.scale),
            kernel=t.kernel,
            coord=t.coord,
            outer=_sig(t.outer, f"{key}.outer"),
            inner=_sig(t.inner, f"{key}.inner"),
            mark_weights=(
                tuple(float(v) for v in t.mark_weights)
                if t.mark_weights is not None
                else None
            ),
        )

    def _vec(rows, key: str, jump: bool = False):
        return tuple(
            tuple(_term(t, f"{key}[{i}][{k}]", jump) for k, t in enumerate(row))
            for i, row in enumerate(rows)
        )

    try:
        return CoefficientSet(
            dim_state=dim_state,
            dim_noise=dim_noise,
            drift=_vec(cfg.drift, "coefficients.drift"),
            diffusion=tuple(
                _vec(row, f"coefficients.diffusion[{i}]") for i, row in enumerate(cfg.diffusion)
            ),
            jump_small=_vec(cfg.jump_small, "coefficients.jump_small", jump=True),
            jump_large=_vec(cfg.jump_large, "coefficients.jump_large", jump=True),
            lipschitz=cfg.lipschitz,
        )
    except CoefficientError as exc:
        raise ConfigError(f"coefficients: {exc}") from None


# ---------------------------------------------------------------------------
# contraction conditions, exact arithmetic
# ---------------------------------------------------------------------------


class ConditionReport(
    namedtuple(
        "ConditionReport",
        "k omega lipschitz jump_bound lhs threshold_existence threshold_distribution eta "
        "verdict_existence verdict_distribution",
    )
):
    """Exact feasibility report for the mean-square contraction conditions.

    ``lhs = (1+2b)/omega^2 + 2/omega`` is compared against the weak
    threshold ``1/(16 K^2 L)`` (the operator is a mean-square contraction,
    ``eta < 1``) and the strong threshold ``1/(32 K^2 L)`` (the solution
    is almost periodic in distribution).  The existence verdict reported
    by the pipeline requires both inequalities, i.e. the full reduction
    used by the benchmark presets (b < 59/2 at K=1, omega=6, L=1/64);
    the weak inequality alone is exposed as ``eta_below_one``.

    ``eta = 16 K^2 L (1+2b)/omega^2 + 32 K^2 L / omega`` is the geometric
    rate of the Picard iteration in mean square.  All fields but the two
    verdicts are exact rationals.
    """

    __slots__ = ()

    @property
    def eta_below_one(self) -> bool:
        return self.eta < 1

    def as_dict(self) -> dict:
        return {
            "k": _frac_str(self.k),
            "omega": _frac_str(self.omega),
            "lipschitz": _frac_str(self.lipschitz),
            "jump_bound": _frac_str(self.jump_bound),
            "lhs": _frac_str(self.lhs),
            "threshold_existence": _frac_str(self.threshold_existence),
            "threshold_distribution": _frac_str(self.threshold_distribution),
            "eta": _frac_str(self.eta),
            "eta_float": float(self.eta),
            "eta_below_one": self.eta_below_one,
            "verdict_existence": self.verdict_existence,
            "verdict_distribution": self.verdict_distribution,
        }


def check_conditions(k, omega, lipschitz, jump_bound) -> ConditionReport:
    """Evaluate the contraction conditions exactly.

    ``k`` and ``omega`` are the dichotomy constants, ``lipschitz`` the
    squared-Lipschitz bound L shared by the coefficients, ``jump_bound``
    the total large-jump intensity b.  Rational in, rational out.
    """
    k = _as_fraction(k, "k")
    omega = _as_fraction(omega, "omega")
    lip = _as_fraction(lipschitz, "lipschitz")
    b = _as_fraction(jump_bound, "jump_bound")
    if k <= 0 or omega <= 0 or lip <= 0:
        raise ConfigError("k, omega and lipschitz must be positive")
    if b < 0:
        raise ConfigError("jump_bound must be nonnegative")
    lhs = (1 + 2 * b) / omega**2 + 2 / omega
    thr_e = 1 / (16 * k**2 * lip)
    thr_d = 1 / (32 * k**2 * lip)
    eta = 16 * k**2 * lip * (1 + 2 * b) / omega**2 + 32 * k**2 * lip / omega
    verdict_distribution = lhs < thr_d
    # the pipeline only certifies existence under the joint reduction:
    # both inequalities, not the weak one alone (see class docstring)
    verdict_existence = lhs < thr_e and verdict_distribution
    return ConditionReport(
        k=k,
        omega=omega,
        lipschitz=lip,
        jump_bound=b,
        lhs=lhs,
        threshold_existence=thr_e,
        threshold_distribution=thr_d,
        eta=eta,
        verdict_existence=verdict_existence,
        verdict_distribution=verdict_distribution,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def grid_steps(x: Number, h: Number, key: str) -> int:
    """The whole number of steps ``h`` from 0 to ``x``; a ConfigError
    naming ``key`` when ``x`` is off that grid.  Decided exactly: ints and
    Fractions as they are, a float by its shortest repr, so 0.1 means
    1/10.  The engine's one on-grid rule: ``validate_config`` reads every
    time of a run with it once, and the noise sampler, the solver and the
    shift scan take the steps it gives."""
    exact_x, exact_h = (Fraction(str(v)) if isinstance(v, float) else Fraction(v) for v in (x, h))
    steps = exact_x / exact_h
    if steps.denominator != 1:
        raise ConfigError(f"{key} = {float(x)} is not a multiple of the step h = {float(h)}")
    return steps.numerator


# the most doubles a run's noise (n_paths x steps x levy.dim, and
# levy.dim + 4 for each expected jump event) and ensemble (n_paths x
# (steps + 1) x state dimension) may hold, 2 GiB: a
# fixed number, so a config is accepted or rejected alike on every
# machine.  1024 paths of example41 over the window [-2, 562] at
# h = 1/64, a scan at its coefficients' almost periods, hold 1.2e8 of
# them
RUN_DOUBLES = 2**28

Run = namedtuple("Run", "config system spec coefficients k_lo n w times shifts conditions")
Run.__doc__ = """A validated run: its config and what ``validate_config`` built from
it, the system, the noise spec and the coefficient set; the run's times
as whole steps h from 0, decided once: the window start ``k_lo``, the
window's step count ``n``, the truncation horizon ``w`` (the configured
one, or the system's default at the step), the base analysis times and
the shifts (tuples in config order); and the exact condition inputs
(K, omega, L, b)."""


def validate_config(cfg: RunConfig) -> Run:
    """Full static validation; raises ConfigError on the first problem.

    Checks the declared dimensions and the expected jump events against
    the run budget (``RUN_DOUBLES``) and every frequency, then builds the
    system, the noise spec and, at their dimensions, the coefficient set
    once (their own validators run), then checks numerics and reads the
    window, the truncation horizon, every analysis time and every shift
    as whole steps h (``grid_steps``); the truncation and every shift
    must be at least one step, and every analysis time and shifted time
    must stay at least one truncation horizon away from the window
    edges, compared in steps.  Analysis times and shifts come together
    or not at all, and a scan's laws must fit ``bl_distance``'s support
    cap.  Returns the ``Run`` every command
    runs on, which carries those steps: the one place a run is checked,
    so the sampler, the Picard solve and the scan take its integers as
    they are.

    The condition inputs are exact: K and omega come from the system
    config, L from the coefficient set's declared constant, b from the
    summed large-jump rates.  Rational inputs stay exact; floats convert
    exactly.  Inputs whose contraction rate eta overflows a float are a
    ConfigError naming ``system.k``, ``system.omega`` and L.
    """
    num = cfg.numerics
    h = float(num.h)
    if not h > 0:
        raise ConfigError("numerics.h must be positive")
    t_lo, t_hi = (float(t) for t in num.window)
    if not (t_lo < t_hi):
        raise ConfigError("numerics.window must have t_lo < t_hi")
    if not (t_lo <= 0.0 <= t_hi):
        raise ConfigError("numerics.window must contain 0 (two-sided noise)")
    k_lo = grid_steps(num.window[0], num.h, "numerics.window[0]")
    k_hi = grid_steps(num.window[1], num.h, "numerics.window[1]")
    if num.n_paths < 2:
        raise ConfigError("numerics.n_paths must be at least 2")
    if not float(num.tol) > 0:
        raise ConfigError("numerics.tol must be positive")
    if num.max_iter < 1:
        raise ConfigError("numerics.max_iter must be at least 1")
    if num.csv_stride is not None and num.csv_stride < 1:
        raise ConfigError("numerics.csv_stride must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")

    # the noise sample and the ensemble must fit the run budget; checked
    # on the declared dimensions, before the builders make lists of that
    # length.  The step count can be too large for a float, so Decimal
    # formats it
    n = k_hi - k_lo
    doubles = num.n_paths * (n * cfg.levy.dim + (n + 1) * len(cfg.system.a))
    if doubles > RUN_DOUBLES:
        raise ConfigError(
            f"numerics.h = {h} splits the window [{t_lo}, {t_hi}] into {Decimal(n):.3g} "
            f"steps, and with numerics.n_paths = {num.n_paths} the noise and the ensemble "
            f"hold {Decimal(doubles):.3g} doubles, above the budget of {RUN_DOUBLES} (2 GiB)"
        )
    # and so must the jump events, each a time, levy.dim marks, a path, a
    # step and a region.  Their expected number is summed in Fractions, so
    # that a rate near the largest double cannot overflow
    jumps = enumerate(cfg.levy.jumps)
    rates = sum((_as_fraction(j.rate, f"levy.jumps[{i}].rate") for i, j in jumps), Fraction(0))
    events = num.n_paths * rates * (Fraction(t_hi) - Fraction(t_lo))
    doubles += events * (cfg.levy.dim + 4)
    if doubles > RUN_DOUBLES:
        raise ConfigError(
            f"levy.jumps: the rates expect {Decimal(math.ceil(events)):.3g} jump events on "
            f"numerics.n_paths = {num.n_paths} paths over the window [{t_lo}, {t_hi}], and "
            f"with the noise and the ensemble the run holds {Decimal(math.ceil(doubles)):.3g} "
            f"doubles, above the budget of {RUN_DOUBLES} (2 GiB)"
        )

    # checked here, not only as a signal parses, so that a frequency no
    # signal reads is rejected too, under its own key
    for i, w in enumerate(cfg.coefficients.freqs):
        if not float(w) > 0:
            raise ConfigError(f"coefficients.freqs[{i}] must be positive, got {w}")

    sysd = build_system(cfg.system)
    spec = build_spec(cfg.levy)
    try:
        validate_spec(spec)
    except NoiseSpecError as exc:
        # the spec's fields are the keys of the levy section
        raise ConfigError(f"levy.{exc}") from None
    cs = build_coefficients(cfg.coefficients, sysd.dim, spec.dim)
    large = (j for j, c in zip(cfg.levy.jumps, spec.jumps) if c.region == "large")
    b = sum((_as_fraction(j.rate, "jump rate") for j in large), Fraction(0))
    conditions = (
        _as_fraction(cfg.system.k, "system.k"),
        _as_fraction(cfg.system.omega, "system.omega"),
        _as_fraction(cs.lipschitz, "lipschitz"),
        b,
    )
    # the condition report writes eta as a float as well, which must not
    # overflow; checked before the default truncation, 12/omega in steps
    try:
        float(check_conditions(*conditions).eta)
    except OverflowError:
        raise ConfigError(
            f"system.k = {cfg.system.k}, system.omega = {cfg.system.omega}, coefficient "
            f"L = {float(cs.lipschitz):g}: the contraction rate "
            "eta = 16 K^2 L (1+2b)/omega^2 + 32 K^2 L/omega overflows a float"
        ) from None

    if num.truncation is not None:
        t_c = float(num.truncation)
        w = grid_steps(num.truncation, num.h, "numerics.truncation")
        if w < 1:
            raise ConfigError(f"numerics.truncation must be at least one step h = {h}, got {t_c}")
    else:
        w = sysd.default_truncation(h)
        t_c = w * h
    if n < 2 * w:
        raise ConfigError(
            f"window [{t_lo}, {t_hi}] is narrower than twice the truncation {t_c}"
        )

    ana = cfg.analysis
    if not (float(ana.epsilon) > 0):
        raise ConfigError("analysis.epsilon must be positive")
    if ana.law_support is not None and ana.law_support < 1:
        raise ConfigError("analysis.law_support must be positive")
    # a scan needs both; a run without one, neither
    if bool(ana.times) != bool(ana.shifts):
        empty, given = ("times", "shifts") if ana.shifts else ("shifts", "times")
        raise ConfigError(
            f"analysis.{empty} is empty but analysis.{given} is not; give both or neither"
        )
    if ana.shifts:
        size = num.n_paths if ana.law_support is None else min(ana.law_support, num.n_paths)
        if 2 * size > SUPPORT_CAP:
            raise ConfigError(
                f"apscan compares laws of {size} points, so their merged support "
                f"can reach {2 * size}, above the cap {SUPPORT_CAP}; set "
                f"analysis.law_support to at most {SUPPORT_CAP // 2}"
            )
    times, shifts = (
        [(float(v), grid_steps(v, num.h, f"{key}[{i}]")) for i, v in enumerate(vs)]
        for key, vs in (("analysis.times", ana.times), ("analysis.shifts", ana.shifts))
    )
    # the scan counts 0 as an accepted shift, so the gaps need s > 0
    for s, j in shifts:
        if j < 1:
            raise ConfigError(f"analysis.shifts must be at least one step h = {h}, got {s}")
    # every analysis time and shifted time, with its grid step, must lie in
    # the window shrunk by the truncation: compared in whole steps
    probe = times + [(t + s, i + j) for t, i in times for s, j in shifts]
    for value, step in probe:
        if not (k_lo + w <= step <= k_hi - w):
            raise ConfigError(
                f"analysis time {value} leaves the window interior "
                f"[{t_lo + t_c}, {t_hi - t_c}] (window shrunk by the truncation)"
            )

    return Run(
        cfg,
        sysd,
        spec,
        cs,
        k_lo,
        n,
        w,
        tuple(i for _, i in times),
        tuple(j for _, j in shifts),
        conditions,
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# each preset is the JSON config presets/NAME.json; docs/configuration.md
# says why each is as it is
_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


def preset_names() -> tuple[str, ...]:
    stems = (os.path.splitext(f) for f in os.listdir(_PRESET_DIR))
    return tuple(sorted(stem for stem, ext in stems if ext == ".json"))


def preset_config(name: str) -> RunConfig:
    """The preset ``name``, read from its file.  Only a listed name is
    read, so a name cannot reach a file outside the presets."""
    if name not in preset_names():
        raise ConfigError(f"unknown preset {name!r}; known: {list(preset_names())}")
    return load_config(os.path.join(_PRESET_DIR, f"{name}.json"))
