"""Simulation and verification engine for semilinear SDEs driven by
two-sided Levy noise whose linear part admits an exponential dichotomy.

Subpackage map:

- ``noise``        two-sided Levy noise specs and path sampling
- ``dichotomy``    linear systems with an exponential dichotomy
- ``coefficients`` quasi-periodic coefficient sets with certified bounds
- ``solver``       the bounded-solution operator and its Picard iteration
- ``apdist``       bounded-Lipschitz distance and almost-periodicity scans
- ``config``       run configuration, presets, JSON round-trip, the exact
                   rational existence conditions
- ``cli``          command line entry points
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the largest merged support ``apdist.bl_distance`` takes; here so that
# validation holds a scan to it without loading ``apdist``
SUPPORT_CAP = 4096


class LevyapError(Exception):
    """Base of every error that bad input or a failed solve raises; the
    command line reports it as ``error: <message>`` with exit code 2."""


def _lazy_import(name: str):
    """The module ``name``: the loaded module when it is loaded, else a
    stand-in (``importlib.util.LazyLoader``) that runs the module's code
    on its first attribute access.  ``levyap.cli`` and the modules that
    ``levyap check`` loads take numpy this way, so a command that builds
    no array never loads it."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
