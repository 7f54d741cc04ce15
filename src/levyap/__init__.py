"""Simulation and verification engine for semilinear SDEs driven by
two-sided Levy noise whose linear part admits an exponential dichotomy.

Subpackage map:

- ``noise``        two-sided Levy noise specs, path sampling, time shifts
- ``dichotomy``    linear systems with an exponential dichotomy
- ``coefficients`` quasi-periodic coefficient sets with certified bounds
- ``solver``       mild-solution simulation, the bounded-solution operator,
                   Picard iteration
- ``apdist``       bounded-Lipschitz distance and almost-periodicity scans
- ``config``       run configuration, presets, JSON round-trip, the exact
                   rational existence conditions
- ``cli``          command line entry points
"""

__version__ = "0.1.0"


class LevyapError(Exception):
    """Base of every error that bad input or a failed solve raises; the
    command line reports it as ``error: <message>`` with exit code 2."""
