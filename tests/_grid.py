"""What the tests take from a validated run: float times as whole grid
steps, the form the sampler, the Picard solve and the shift scan take,
and the coefficient sets of the shipped presets."""

import numpy as np

from levyap.config import grid_steps, preset_config, validate_config


def preset_coefficients(name: str):
    """The coefficient set that a run of the preset ``name`` builds."""
    return validate_config(preset_config(name)).coefficients


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


def ensemble_grid(ens) -> np.ndarray:
    """The times of an ensemble's grid, (k_lo + k) h for k = 0 ..
    n_steps, by the expression the CSV writer uses."""
    return (ens.k_lo + np.arange(ens.n_steps + 1)) * ens.h
