"""Shared pytest configuration.

Tests marked ``@pytest.mark.acceptance(label)`` report one PASS/FAIL
line per label in the terminal summary, so the acceptance gate can be
read at a glance.
"""

import sys
from pathlib import Path

import pytest

# make the tests' helper modules (_lp_oracles.py, _ensemble_oracles.py)
# importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

_acceptance_results: dict[str, bool] = {}


@pytest.fixture
def set_chunk(monkeypatch):
    """A function ``set_chunk(paths, n_steps)`` that makes the solver's
    chunks ``paths`` paths wide on a grid of ``n_steps`` steps, through
    the chunk budget ``solver._CHUNK_BUDGET``, as the CSV tests set
    ``_floatfmt._CHUNK``; None restores the default budget.  A chunk is
    at most half a block of ``BLOCK_PATHS`` paths, so ``paths`` is too."""
    import levyap.solver as solver
    from levyap.config import BLOCK_PATHS

    default = solver._CHUNK_BUDGET

    def set_chunk(paths, n_steps):
        assert paths is None or 1 <= paths <= BLOCK_PATHS // 2, paths
        budget = default if paths is None else paths * n_steps
        monkeypatch.setattr(solver, "_CHUNK_BUDGET", budget)

    return set_chunk


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None or not marker.args:
        return
    label = marker.args[0]
    if report.when == "call":
        _acceptance_results[label] = report.passed
    elif report.when == "setup" and report.failed:
        _acceptance_results[label] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(_acceptance_results):
        status = "PASS" if _acceptance_results[label] else "FAIL"
        terminalreporter.write_line(f"  {label}: {status}")
