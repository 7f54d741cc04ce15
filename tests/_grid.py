"""What the tests take from a validated run: float times as whole grid
steps, the form the sampler, the Picard solve and the shift scan take,
and the runs of the shipped presets, whose system, noise spec and
coefficient set the tests share, and their solves on a few paths."""

import functools

from levyap.coefficients import CoefficientSet, CoefficientTerm
from levyap.config import grid_steps, preset_config, validate_config
from levyap.solver import solve_run


@functools.cache
def preset_run(name: str):
    """The validated run of the preset ``name``, built once."""
    return validate_config(preset_config(name))


def preset_coefficients(name: str):
    """The coefficient set that a run of the preset ``name`` builds."""
    return preset_run(name).coefficients


def small_solve(name: str):
    """The solve (``solve_run``) of the preset ``name`` on 8 paths, every
    grid point kept."""
    cfg = preset_config(name)
    run = validate_config(cfg._replace(numerics=cfg.numerics._replace(n_paths=8)))
    return solve_run(run, 1, None)


def constant_drift_coefficients(c1: float, c2: float) -> CoefficientSet:
    """The constant drift (c1, c2) on example41's dimensions and declared
    Lipschitz constant, with no other term."""
    return CoefficientSet(
        dim_state=2,
        dim_noise=1,
        drift=((CoefficientTerm(c1, "const"),), (CoefficientTerm(c2, "const"),)),
        diffusion=(((),), ((),)),
        jump_small=((), ()),
        jump_large=((), ()),
        lipschitz=preset_coefficients("example41").lipschitz,
    )


def galerkin_modes(n: int):
    """galerkin_heat's coefficient section cut to its first ``n`` modes."""
    c = preset_config("galerkin_heat").coefficients
    return c._replace(
        drift=c.drift[:n],
        diffusion=tuple(row[:n] for row in c.diffusion[:n]),
        jump_small=c.jump_small[:n],
        jump_large=c.jump_large[:n],
    )


def steps(x: float, h: float) -> int:
    """The whole number of steps ``h`` in the time ``x``, by the config's
    grid rule (``grid_steps``); a test time off the grid raises, as
    ``validate_config`` would reject it."""
    return grid_steps(float(x), h, "test time")


def window_steps(t_lo: float, t_hi: float, h: float) -> tuple:
    """The window [t_lo, t_hi] as its start step and its step count."""
    k_lo = steps(t_lo, h)
    return k_lo, steps(t_hi, h) - k_lo

