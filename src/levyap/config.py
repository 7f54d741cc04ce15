"""Run configuration: typed config dataclasses, exact-rational JSON
round-trip, named presets and builders that turn a config into the
systems, noise specs and coefficient sets the solver consumes.

Numbers anywhere in a config may be written as JSON numbers or as exact
rational strings "p/q"; rationals survive serialize/parse round trips
unchanged, so condition checks stay exact end to end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Optional, Union

import numpy as np

from .coefficients import (
    CoefficientSet,
    CoefficientTerm,
    QuasiPeriodicSignal,
    example41_coefficients,
    galerkin_heat_coefficients,
    ou_forced_coefficients,
)
from .dichotomy import DichotomousSystem, NoDichotomyError, estimate_constants
from .noise import (
    JumpComponent,
    LevyProcessSpec,
    MarkSampler,
    WienerSpec,
    point_mark,
    uniform_annulus_mark,
    uniform_interval_mark,
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
    "CustomCoefficients",
    "CoefficientConfig",
    "NumericsConfig",
    "AnalysisConfig",
    "RunConfig",
    "parse_number",
    "number_to_json",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "save_config",
    "preset_names",
    "preset_config",
    "build_system",
    "build_spec",
    "build_coefficients",
    "condition_inputs",
    "validate_config",
    "galerkin_system",
]

Number = Union[int, float, Fraction]

_GRID_TOL = 1e-9


class ConfigError(ValueError):
    """Raised on malformed or inconsistent run configurations."""


# ---------------------------------------------------------------------------
# numbers: exact rationals in JSON
# ---------------------------------------------------------------------------


def parse_number(obj, name: str) -> Number:
    """Accept ints, floats and exact rational strings "p/q"."""
    if isinstance(obj, bool):
        raise ConfigError(f"{name}: expected a number, got a boolean")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ConfigError(f"{name}: number must be finite")
        return obj
    if isinstance(obj, Fraction):
        return obj
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{name}: bad rational literal {obj!r}") from exc
    raise ConfigError(f"{name}: expected a number or 'p/q' string, got {obj!r}")


def number_to_json(x: Number):
    if isinstance(x, bool):
        raise ConfigError("booleans are not config numbers")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def _num_list(obj, name: str) -> tuple[Number, ...]:
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"{name}: expected a list of numbers")
    return tuple(parse_number(v, f"{name}[{i}]") for i, v in enumerate(obj))


def _num_matrix(obj, name: str) -> tuple[tuple[Number, ...], ...]:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ConfigError(f"{name}: expected a matrix as a list of rows")
    return tuple(_num_list(row, f"{name}[{i}]") for i, row in enumerate(obj))


def _as_float_matrix(m: tuple[tuple[Number, ...], ...]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in m], dtype=float)


def _exact(x: Number, name: str) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise ConfigError(f"{name}: not a number")


# ---------------------------------------------------------------------------
# config dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkConfig:
    """Jump mark distribution: ``point`` (atom at x), ``uniform_interval``
    (scalar marks on [a, b]) or ``uniform_annulus`` (radially uniform
    between r0 and r1 in the given dimension)."""

    kind: str
    x: Optional[tuple[Number, ...]] = None
    a: Optional[Number] = None
    b: Optional[Number] = None
    r0: Optional[Number] = None
    r1: Optional[Number] = None
    dim: Optional[int] = None


@dataclass(frozen=True)
class JumpConfig:
    rate: Number
    region: str
    marks: MarkConfig


@dataclass(frozen=True)
class LevyConfig:
    dim: int
    drift: tuple[Number, ...] = ()
    covariance: Optional[tuple[tuple[Number, ...], ...]] = None
    jumps: tuple[JumpConfig, ...] = ()


@dataclass(frozen=True)
class SystemConfig:
    """Either explicit (A, P, K, omega) or a derived spectral form.

    ``galerkin`` holds {"n_modes": m, "a0": shift}: the generator is the
    diagonal of shifted square eigenvalues a0 - k^2 (k = 0..m-1), the
    projection splits by sign, and (K, omega) are fitted from sampled
    propagator norms.
    """

    a: Optional[tuple[tuple[Number, ...], ...]] = None
    p: Optional[tuple[tuple[Number, ...], ...]] = None
    k: Optional[Number] = None
    omega: Optional[Number] = None
    galerkin: Optional[dict] = None


@dataclass(frozen=True)
class TermConfig:
    scale: Number
    kernel: str
    coord: int = 0
    outer: Optional[str] = None
    inner: Optional[str] = None
    mark_weights: Optional[tuple[Number, ...]] = None


@dataclass(frozen=True)
class CustomCoefficients:
    dim_state: int
    dim_noise: int
    freqs: tuple[Number, ...]
    drift: tuple[tuple[TermConfig, ...], ...]
    diffusion: tuple[tuple[tuple[TermConfig, ...], ...], ...]
    jump_small: tuple[tuple[TermConfig, ...], ...]
    jump_large: tuple[tuple[TermConfig, ...], ...]
    lipschitz: Number


@dataclass(frozen=True)
class CoefficientConfig:
    preset: Optional[str] = None
    params: dict = field(default_factory=dict)
    custom: Optional[CustomCoefficients] = None


@dataclass(frozen=True)
class NumericsConfig:
    h: Number
    window: tuple[Number, Number]
    n_paths: int
    truncation: Optional[Number] = None
    tol: Number = 1e-10
    max_iter: int = 60
    csv_stride: Optional[int] = None


@dataclass(frozen=True)
class AnalysisConfig:
    epsilon: Number = 0.1
    shifts: tuple[Number, ...] = ()
    times: tuple[Number, ...] = ()
    law_support: Optional[int] = None


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    levy: LevyConfig
    coefficients: CoefficientConfig
    numerics: NumericsConfig
    analysis: AnalysisConfig
    seed: int = 0
    threads: int = 1


# ---------------------------------------------------------------------------
# dict <-> dataclass
# ---------------------------------------------------------------------------


def _mark_from(d: dict) -> MarkConfig:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("marks: expected an object with a 'kind'")
    kind = d["kind"]
    return MarkConfig(
        kind=kind,
        x=_num_list(d["x"], "marks.x") if "x" in d else None,
        a=parse_number(d["a"], "marks.a") if "a" in d else None,
        b=parse_number(d["b"], "marks.b") if "b" in d else None,
        r0=parse_number(d["r0"], "marks.r0") if "r0" in d else None,
        r1=parse_number(d["r1"], "marks.r1") if "r1" in d else None,
        dim=int(d["dim"]) if "dim" in d else None,
    )


def _mark_to(m: MarkConfig) -> dict:
    out: dict = {"kind": m.kind}
    if m.x is not None:
        out["x"] = [number_to_json(v) for v in m.x]
    for key in ("a", "b", "r0", "r1"):
        v = getattr(m, key)
        if v is not None:
            out[key] = number_to_json(v)
    if m.dim is not None:
        out["dim"] = m.dim
    return out


def _term_from(d: dict, name: str) -> TermConfig:
    if not isinstance(d, dict) or "scale" not in d or "kernel" not in d:
        raise ConfigError(f"{name}: term needs 'scale' and 'kernel'")
    return TermConfig(
        scale=parse_number(d["scale"], f"{name}.scale"),
        kernel=str(d["kernel"]),
        coord=int(d.get("coord", 0)),
        outer=d.get("outer"),
        inner=d.get("inner"),
        mark_weights=(
            _num_list(d["mark_weights"], f"{name}.mark_weights")
            if d.get("mark_weights") is not None
            else None
        ),
    )


def _term_to(t: TermConfig) -> dict:
    out: dict = {"scale": number_to_json(t.scale), "kernel": t.kernel}
    if t.coord:
        out["coord"] = t.coord
    if t.outer is not None:
        out["outer"] = t.outer
    if t.inner is not None:
        out["inner"] = t.inner
    if t.mark_weights is not None:
        out["mark_weights"] = [number_to_json(v) for v in t.mark_weights]
    return out


def _terms_vector_from(obj, name: str) -> tuple[tuple[TermConfig, ...], ...]:
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"{name}: expected a list (one term list per coordinate)")
    return tuple(
        tuple(_term_from(t, f"{name}[{i}]") for t in row) for i, row in enumerate(obj)
    )


def _terms_matrix_from(obj, name: str):
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"{name}: expected a list of rows")
    return tuple(_terms_vector_from(row, f"{name}[{i}]") for i, row in enumerate(obj))


def config_from_dict(d: dict) -> RunConfig:
    """Parse a config mapping; a "preset" key loads that preset and any
    further top-level sections replace the preset's."""
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    d = dict(d)
    if "preset" in d:
        base = preset_config(str(d.pop("preset")))
        if not d:
            return base
        merged = config_to_dict(base)
        merged.update(d)
        d = merged

    try:
        sys_d = d["system"]
        levy_d = d["levy"]
        coeff_d = d["coefficients"]
        num_d = d["numerics"]
    except KeyError as exc:
        raise ConfigError(f"config is missing section {exc.args[0]!r}") from None
    ana_d = d.get("analysis", {})

    system = SystemConfig(
        a=_num_matrix(sys_d["a"], "system.a") if "a" in sys_d else None,
        p=_num_matrix(sys_d["p"], "system.p") if "p" in sys_d else None,
        k=parse_number(sys_d["k"], "system.k") if "k" in sys_d else None,
        omega=parse_number(sys_d["omega"], "system.omega") if "omega" in sys_d else None,
        galerkin=(
            {
                "n_modes": int(sys_d["galerkin"]["n_modes"]),
                "a0": parse_number(sys_d["galerkin"]["a0"], "system.galerkin.a0"),
            }
            if "galerkin" in sys_d and sys_d["galerkin"] is not None
            else None
        ),
    )
    jumps = []
    for i, j in enumerate(levy_d.get("jumps", [])):
        jumps.append(
            JumpConfig(
                rate=parse_number(j["rate"], f"levy.jumps[{i}].rate"),
                region=str(j["region"]),
                marks=_mark_from(j["marks"]),
            )
        )
    levy = LevyConfig(
        dim=int(levy_d["dim"]),
        drift=_num_list(levy_d["drift"], "levy.drift") if "drift" in levy_d else (),
        covariance=(
            _num_matrix(levy_d["covariance"], "levy.covariance")
            if levy_d.get("covariance") is not None
            else None
        ),
        jumps=tuple(jumps),
    )
    custom = None
    if coeff_d.get("custom") is not None:
        c = coeff_d["custom"]
        custom = CustomCoefficients(
            dim_state=int(c["dim_state"]),
            dim_noise=int(c["dim_noise"]),
            freqs=_num_list(c["freqs"], "coefficients.custom.freqs"),
            drift=_terms_vector_from(c.get("drift", []), "custom.drift"),
            diffusion=_terms_matrix_from(c.get("diffusion", []), "custom.diffusion"),
            jump_small=_terms_vector_from(c.get("jump_small", []), "custom.jump_small"),
            jump_large=_terms_vector_from(c.get("jump_large", []), "custom.jump_large"),
            lipschitz=parse_number(c["lipschitz"], "custom.lipschitz"),
        )
    coefficients = CoefficientConfig(
        preset=coeff_d.get("preset"),
        params={
            k: parse_number(v, f"coefficients.params.{k}")
            for k, v in coeff_d.get("params", {}).items()
        },
        custom=custom,
    )
    window = num_d.get("window")
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise ConfigError("numerics.window must be [t_lo, t_hi]")
    numerics = NumericsConfig(
        h=parse_number(num_d["h"], "numerics.h"),
        window=(
            parse_number(window[0], "numerics.window[0]"),
            parse_number(window[1], "numerics.window[1]"),
        ),
        n_paths=int(num_d["n_paths"]),
        truncation=(
            parse_number(num_d["truncation"], "numerics.truncation")
            if num_d.get("truncation") is not None
            else None
        ),
        tol=parse_number(num_d.get("tol", 1e-10), "numerics.tol"),
        max_iter=int(num_d.get("max_iter", 60)),
        csv_stride=(
            int(num_d["csv_stride"]) if num_d.get("csv_stride") is not None else None
        ),
    )
    analysis = AnalysisConfig(
        epsilon=parse_number(ana_d.get("epsilon", 0.1), "analysis.epsilon"),
        shifts=_num_list(ana_d.get("shifts", []), "analysis.shifts"),
        times=_num_list(ana_d.get("times", []), "analysis.times"),
        law_support=(
            int(ana_d["law_support"]) if ana_d.get("law_support") is not None else None
        ),
    )
    return RunConfig(
        system=system,
        levy=levy,
        coefficients=coefficients,
        numerics=numerics,
        analysis=analysis,
        seed=int(d.get("seed", 0)),
        threads=int(d.get("threads", 1)),
    )


def config_to_dict(cfg: RunConfig) -> dict:
    sys_d: dict = {}
    if cfg.system.a is not None:
        sys_d["a"] = [[number_to_json(v) for v in row] for row in cfg.system.a]
    if cfg.system.p is not None:
        sys_d["p"] = [[number_to_json(v) for v in row] for row in cfg.system.p]
    if cfg.system.k is not None:
        sys_d["k"] = number_to_json(cfg.system.k)
    if cfg.system.omega is not None:
        sys_d["omega"] = number_to_json(cfg.system.omega)
    if cfg.system.galerkin is not None:
        sys_d["galerkin"] = {
            "n_modes": int(cfg.system.galerkin["n_modes"]),
            "a0": number_to_json(cfg.system.galerkin["a0"]),
        }
    levy_d: dict = {"dim": cfg.levy.dim}
    if cfg.levy.drift:
        levy_d["drift"] = [number_to_json(v) for v in cfg.levy.drift]
    if cfg.levy.covariance is not None:
        levy_d["covariance"] = [
            [number_to_json(v) for v in row] for row in cfg.levy.covariance
        ]
    if cfg.levy.jumps:
        levy_d["jumps"] = [
            {
                "rate": number_to_json(j.rate),
                "region": j.region,
                "marks": _mark_to(j.marks),
            }
            for j in cfg.levy.jumps
        ]
    coeff_d: dict = {}
    if cfg.coefficients.preset is not None:
        coeff_d["preset"] = cfg.coefficients.preset
    if cfg.coefficients.params:
        coeff_d["params"] = {
            k: number_to_json(v) for k, v in cfg.coefficients.params.items()
        }
    if cfg.coefficients.custom is not None:
        c = cfg.coefficients.custom
        coeff_d["custom"] = {
            "dim_state": c.dim_state,
            "dim_noise": c.dim_noise,
            "freqs": [number_to_json(v) for v in c.freqs],
            "drift": [[_term_to(t) for t in row] for row in c.drift],
            "diffusion": [
                [[_term_to(t) for t in cell] for cell in row] for row in c.diffusion
            ],
            "jump_small": [[_term_to(t) for t in row] for row in c.jump_small],
            "jump_large": [[_term_to(t) for t in row] for row in c.jump_large],
            "lipschitz": number_to_json(c.lipschitz),
        }
    num = cfg.numerics
    num_d: dict = {
        "h": number_to_json(num.h),
        "window": [number_to_json(num.window[0]), number_to_json(num.window[1])],
        "n_paths": num.n_paths,
        "tol": number_to_json(num.tol),
        "max_iter": num.max_iter,
    }
    if num.truncation is not None:
        num_d["truncation"] = number_to_json(num.truncation)
    if num.csv_stride is not None:
        num_d["csv_stride"] = num.csv_stride
    ana = cfg.analysis
    ana_d: dict = {"epsilon": number_to_json(ana.epsilon)}
    if ana.shifts:
        ana_d["shifts"] = [number_to_json(v) for v in ana.shifts]
    if ana.times:
        ana_d["times"] = [number_to_json(v) for v in ana.times]
    if ana.law_support is not None:
        ana_d["law_support"] = ana.law_support
    return {
        "system": sys_d,
        "levy": levy_d,
        "coefficients": coeff_d,
        "numerics": num_d,
        "analysis": ana_d,
        "seed": cfg.seed,
        "threads": cfg.threads,
    }


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def galerkin_system(n_modes: int, a0: Number) -> DichotomousSystem:
    """Diagonal spectral system with eigenvalues a0 - k^2, k = 0..m-1.

    The projection separates negative from positive eigenvalues and the
    dichotomy constants are fitted from sampled propagator norms, which
    raises ``NoDichotomyError`` when the shifted spectrum touches 0.
    """
    if n_modes < 1:
        raise ConfigError("galerkin system needs at least one mode")
    a0f = float(a0)
    eigs = a0f - np.arange(n_modes, dtype=float) ** 2
    a = np.diag(eigs)
    p = np.diag((eigs < 0).astype(float))
    provisional = DichotomousSystem.create(a, p, k=1.0, omega=1e-12, check=False)
    gap = float(np.abs(eigs).min()) if len(eigs) else 0.0
    horizon = 4.0 / gap if gap > 0 else 4.0
    est = estimate_constants(provisional, np.linspace(0.0, min(horizon, 50.0), 33))
    return DichotomousSystem.create(
        a, p, k=est.k_hat * (1.0 + 1e-9), omega=est.omega_hat * (1.0 - 1e-9)
    )


def build_system(cfg: SystemConfig) -> DichotomousSystem:
    if cfg.galerkin is not None:
        return galerkin_system(cfg.galerkin["n_modes"], cfg.galerkin["a0"])
    if cfg.a is None or cfg.p is None or cfg.k is None or cfg.omega is None:
        raise ConfigError("system needs a, p, k and omega (or a galerkin block)")
    if not (float(cfg.omega) > 0):
        raise ConfigError("system.omega must be positive")
    if not (float(cfg.k) > 0):
        raise ConfigError("system.k must be positive")
    return DichotomousSystem.create(
        _as_float_matrix(cfg.a),
        _as_float_matrix(cfg.p),
        k=float(cfg.k),
        omega=float(cfg.omega),
    )


def _build_marks(m: MarkConfig, dim: int) -> MarkSampler:
    if m.kind == "point":
        if m.x is None:
            raise ConfigError("point marks need 'x'")
        return point_mark([float(v) for v in m.x])
    if m.kind == "uniform_interval":
        if m.a is None or m.b is None:
            raise ConfigError("uniform_interval marks need 'a' and 'b'")
        return uniform_interval_mark(float(m.a), float(m.b))
    if m.kind == "uniform_annulus":
        if m.r0 is None or m.r1 is None:
            raise ConfigError("uniform_annulus marks need 'r0' and 'r1'")
        return uniform_annulus_mark(float(m.r0), float(m.r1), m.dim or dim)
    raise ConfigError(f"unknown mark kind {m.kind!r}")


def build_spec(cfg: LevyConfig) -> LevyProcessSpec:
    wiener = None
    if cfg.covariance is not None:
        wiener = WienerSpec(cfg.dim, _as_float_matrix(cfg.covariance))
    jumps = tuple(
        JumpComponent(
            rate=float(j.rate), region=j.region, marks=_build_marks(j.marks, cfg.dim)
        )
        for j in cfg.jumps
    )
    drift = tuple(float(v) for v in cfg.drift) if cfg.drift else ()
    return LevyProcessSpec(dim=cfg.dim, drift=drift, wiener=wiener, jumps=jumps)


_COEFF_PRESETS = {
    "example41": (example41_coefficients, ()),
    "ou_forced": (ou_forced_coefficients, ("amplitude", "sigma")),
    "galerkin_heat": (
        galerkin_heat_coefficients,
        ("n_modes", "forcing_scale", "diffusion_scale", "jump_scale"),
    ),
}


def build_coefficients(cfg: CoefficientConfig) -> CoefficientSet:
    if (cfg.preset is None) == (cfg.custom is None):
        raise ConfigError("coefficients need exactly one of 'preset' or 'custom'")
    if cfg.preset is not None:
        if cfg.preset not in _COEFF_PRESETS:
            raise ConfigError(
                f"unknown coefficient preset {cfg.preset!r}; "
                f"known: {sorted(_COEFF_PRESETS)}"
            )
        fn, allowed = _COEFF_PRESETS[cfg.preset]
        bad = set(cfg.params) - set(allowed)
        if bad:
            raise ConfigError(
                f"preset {cfg.preset!r} does not take parameters {sorted(bad)}"
            )
        kwargs = {}
        for key, value in cfg.params.items():
            kwargs[key] = int(value) if key == "n_modes" else float(value)
        return fn(**kwargs)

    c = cfg.custom
    freqs = tuple(float(v) for v in c.freqs)

    def _sig(expr: Optional[str]):
        return None if expr is None else QuasiPeriodicSignal.parse(expr, freqs)

    def _term(t: TermConfig) -> CoefficientTerm:
        return CoefficientTerm(
            scale=float(t.scale),
            kernel=t.kernel,
            coord=t.coord,
            outer=_sig(t.outer),
            inner=_sig(t.inner),
            mark_weights=(
                tuple(float(v) for v in t.mark_weights)
                if t.mark_weights is not None
                else None
            ),
        )

    def _vec(rows):
        return tuple(tuple(_term(t) for t in row) for row in rows)

    lip = c.lipschitz if isinstance(c.lipschitz, Rational) else float(c.lipschitz)
    return CoefficientSet(
        dim_state=c.dim_state,
        dim_noise=c.dim_noise,
        drift=_vec(c.drift),
        diffusion=tuple(tuple(tuple(_term(t) for t in cell) for cell in row) for row in c.diffusion),
        jump_small=_vec(c.jump_small),
        jump_large=_vec(c.jump_large),
        lipschitz=lip,
    )


def condition_inputs(cfg: RunConfig) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact (K, omega, L, b) for the contraction conditions.

    K and omega come from the system config (or the fitted galerkin
    constants), L from the coefficient set's declared constant, b from
    the summed large-jump rates.  Rational inputs stay exact; floats
    convert exactly.
    """
    if cfg.system.galerkin is not None:
        sysd = build_system(cfg.system)
        k, omega = Fraction(sysd.k), Fraction(sysd.omega)
    else:
        if cfg.system.k is None or cfg.system.omega is None:
            raise ConfigError("system needs k and omega for condition checks")
        k = _exact(cfg.system.k, "system.k")
        omega = _exact(cfg.system.omega, "system.omega")
    cs = build_coefficients(cfg.coefficients)
    lip = Fraction(cs.lipschitz) if isinstance(cs.lipschitz, Rational) else Fraction(float(cs.lipschitz))
    b = sum(
        (_exact(j.rate, "jump rate") for j in cfg.levy.jumps if j.region == "large"),
        Fraction(0),
    )
    return k, omega, lip, b


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _on_grid(value: float, h: float, what: str) -> None:
    k = round(value / h)
    if abs(value - k * h) > _GRID_TOL * max(1.0, abs(value)):
        raise ConfigError(f"{what} = {value} is not a multiple of the step h = {h}")


def validate_config(cfg: RunConfig) -> None:
    """Full static validation; raises ConfigError on the first problem.

    Builds the system, noise spec and coefficient set (their own
    validators run), then checks numerics and that every analysis time
    and shifted time stays at least one truncation horizon away from the
    window edges.
    """
    num = cfg.numerics
    h = float(num.h)
    if not (h > 0 and math.isfinite(h)):
        raise ConfigError("numerics.h must be positive")
    t_lo, t_hi = float(num.window[0]), float(num.window[1])
    if not (t_lo < t_hi):
        raise ConfigError("numerics.window must have t_lo < t_hi")
    if not (t_lo <= 0.0 <= t_hi):
        raise ConfigError("numerics.window must contain 0 (two-sided noise)")
    _on_grid(t_lo, h, "window start")
    _on_grid(t_hi, h, "window end")
    if num.n_paths < 2:
        raise ConfigError("numerics.n_paths must be at least 2")
    if not (float(num.tol) > 0):
        raise ConfigError("numerics.tol must be positive")
    if num.max_iter < 1:
        raise ConfigError("numerics.max_iter must be at least 1")
    if num.csv_stride is not None and num.csv_stride < 1:
        raise ConfigError("numerics.csv_stride must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.threads < 1:
        raise ConfigError("threads must be at least 1")

    sysd = build_system(cfg.system)
    spec = build_spec(cfg.levy)
    validate_spec(spec)
    cs = build_coefficients(cfg.coefficients)
    if cs.dim_state != sysd.dim:
        raise ConfigError(
            f"coefficient state dimension {cs.dim_state} != system dimension {sysd.dim}"
        )
    if cs.dim_noise != spec.dim:
        raise ConfigError(
            f"coefficient noise dimension {cs.dim_noise} != levy dimension {spec.dim}"
        )

    if num.truncation is not None:
        t_c = float(num.truncation)
        if not (t_c > 0):
            raise ConfigError("numerics.truncation must be positive")
        _on_grid(t_c, h, "truncation")
    else:
        t_c = max(1, round(12.0 / sysd.omega / h)) * h
    if t_hi - t_lo < 2 * t_c:
        raise ConfigError(
            f"window [{t_lo}, {t_hi}] is narrower than twice the truncation {t_c}"
        )

    ana = cfg.analysis
    if not (float(ana.epsilon) > 0):
        raise ConfigError("analysis.epsilon must be positive")
    if ana.law_support is not None and ana.law_support < 1:
        raise ConfigError("analysis.law_support must be positive")
    times = [float(t) for t in ana.times]
    shifts = [float(s) for s in ana.shifts]
    for t in times:
        _on_grid(t, h, "analysis time")
    for s in shifts:
        _on_grid(s, h, "analysis shift")
    margin_lo, margin_hi = t_lo + t_c, t_hi - t_c
    probe = list(times) + [t + s for t in times for s in shifts]
    for value in probe:
        if not (margin_lo - _GRID_TOL <= value <= margin_hi + _GRID_TOL):
            raise ConfigError(
                f"analysis time {value} leaves the window interior "
                f"[{margin_lo}, {margin_hi}] (window shrunk by the truncation)"
            )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _example41_config() -> RunConfig:
    return RunConfig(
        system=SystemConfig(
            a=((8, 0), (0, -6)),
            p=((0, 0), (0, 1)),
            k=1,
            omega=6,
        ),
        levy=LevyConfig(
            dim=1,
            covariance=((1,),),
            jumps=(
                JumpConfig(
                    rate=Fraction(3, 2),
                    region="small",
                    marks=MarkConfig(
                        kind="uniform_interval", a=Fraction(-9, 10), b=Fraction(9, 10)
                    ),
                ),
                JumpConfig(
                    rate=1,
                    region="large",
                    marks=MarkConfig(kind="uniform_interval", a=1, b=Fraction(3, 2)),
                ),
            ),
        ),
        coefficients=CoefficientConfig(preset="example41"),
        numerics=NumericsConfig(
            h=Fraction(1, 256),
            window=(-2, 4),
            n_paths=256,
            truncation=2,
            tol=1e-12,
            max_iter=40,
        ),
        analysis=AnalysisConfig(
            epsilon=0.25,
            shifts=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1),
            times=(0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1),
            # cap the law supports: 2-d distance LPs between independent
            # close point clouds grow expensive past ~100 support points
            law_support=64,
        ),
        seed=41,
    )


def _ou_forced_config() -> RunConfig:
    # near-periods of the sqrt(2) forcing, snapped to the h = 1/64 grid
    base = 2.0 * math.pi / math.sqrt(2.0)
    shifts = tuple(Fraction(round(k * base * 64), 64) for k in range(1, 6))
    times = tuple(6 + Fraction(i, 16) for i in range(25))
    return RunConfig(
        system=SystemConfig(a=((-1,),), p=((1,),), k=1, omega=1),
        levy=LevyConfig(dim=1, covariance=((1,),)),
        coefficients=CoefficientConfig(
            preset="ou_forced", params={"amplitude": 1.0, "sigma": 0.3}
        ),
        numerics=NumericsConfig(
            h=Fraction(1, 64),
            window=(-6, 36),
            n_paths=512,
            truncation=6,
            tol=1e-12,
            max_iter=40,
        ),
        analysis=AnalysisConfig(
            epsilon=0.2, shifts=shifts, times=times, law_support=96
        ),
        seed=7,
    )


def _galerkin_heat_config() -> RunConfig:
    return RunConfig(
        system=SystemConfig(galerkin={"n_modes": 8, "a0": Fraction(5, 2)}),
        levy=LevyConfig(
            dim=8,
            covariance=tuple(
                tuple(1 if i == j else 0 for j in range(8)) for i in range(8)
            ),
            jumps=(
                JumpConfig(
                    rate=2,
                    region="small",
                    marks=MarkConfig(
                        kind="uniform_annulus", r0=Fraction(1, 10), r1=Fraction(1, 2), dim=8
                    ),
                ),
            ),
        ),
        coefficients=CoefficientConfig(preset="galerkin_heat", params={"n_modes": 8}),
        numerics=NumericsConfig(
            h=Fraction(1, 32),
            window=(-8, 16),
            n_paths=128,
            truncation=8,
            tol=1e-10,
            max_iter=40,
        ),
        analysis=AnalysisConfig(
            epsilon=0.3, shifts=(1, 2), times=(0, 1, 2, 3), law_support=64
        ),
        seed=2,
    )


_PRESETS = {
    "example41": _example41_config,
    "ou_forced": _ou_forced_config,
    "galerkin_heat": _galerkin_heat_config,
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset_config(name: str) -> RunConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {sorted(_PRESETS)}")
    return _PRESETS[name]()
