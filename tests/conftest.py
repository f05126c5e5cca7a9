"""Shared fixtures and the acceptance criterion ledger.

Acceptance tests register one verdict per criterion through the ``criteria``
fixture; a terminal-summary hook replays them as one line each at the end of
the run so the full sweep is readable without scrolling through tracebacks.
Heavy experiment runs are session-scoped fixtures so criteria that share a
corpus (the unit-weight atomic run feeds three of them) pay for it once.
"""

import time
from pathlib import Path

import pytest

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class _Verdict:
    """Mutable holder the test fills in before leaving the guard block."""

    def __init__(self, num: int):
        self.num = num
        self.passed = None
        self.detail = ""

    def finish(self, passed: bool, detail: str) -> None:
        self.passed = bool(passed)
        self.detail = detail

    def finish_checks(self, checks: dict, extra: str = "") -> None:
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.finish(False, "failed " + ", ".join(bad)
                        + (f" ({extra})" if extra else ""))
        else:
            self.finish(True, extra or "all checks held")


class CriteriaLog:
    def __init__(self):
        self.rows = {}

    def record(self, num: int, passed: bool, detail: str) -> None:
        self.rows[num] = (bool(passed), detail)

    def guard(self, num: int):
        log = self

        class _Guard:
            def __enter__(self):
                self.v = _Verdict(num)
                return self.v

            def __exit__(self, exc_type, exc, tb):
                v = self.v
                if exc is not None:
                    if v.passed is None:
                        log.record(num, False,
                                   f"aborted by {exc_type.__name__}: {exc}")
                    else:
                        log.record(num, v.passed, v.detail)
                    return False
                if v.passed is None:
                    log.record(num, False, "test ended without a verdict")
                    pytest.fail(f"criterion {num:02d} recorded no verdict")
                log.record(num, v.passed, v.detail)
                if not v.passed:
                    pytest.fail(f"criterion {num:02d}: {v.detail}")
                return False

        return _Guard()


def family_cubes(family, j=None):
    """The cubes of a ``DyadicFamily`` as ``Cube`` objects, built from its
    centre arrays: those of level j in row order or, with no level, the
    tiling cubes of every level and then the translates of every level."""
    from fracharm.grid import Cube

    def rows(i, part):
        side = 2.0 ** (family.j_min + i)
        return [Cube(tuple(c), side) for c in family.centres[i][part].tolist()]

    if j is not None:
        return rows(j - family.j_min, slice(None)) if j in family.levels() else []
    levels = range(len(family.centres))
    return ([q for i in levels for q in rows(i, slice(family.tiles[i]))]
            + [q for i in levels for q in rows(i, slice(family.tiles[i], None))])


def pytest_configure(config):
    config._criteria_log = CriteriaLog()


@pytest.fixture(scope="session")
def criteria(request):
    return request.config._criteria_log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    log = getattr(config, "_criteria_log", None)
    if log is None or not log.rows:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(log.rows):
        passed, detail = log.rows[num]
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d} {word}: {detail}")


def _timed_run(name: str):
    from fracharm.config import ExperimentConfig
    from fracharm.experiments import run_experiment

    cfg = ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json")
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def frac_hardy_unit_run():
    """Unit-weight two-slot atomic corpus; shared by three criteria."""
    return _timed_run("frac_hardy_unit")


@pytest.fixture(scope="session")
def var_frac_hardy_const_run():
    """Constant-exponent twin of the unit run, for the degeneration check."""
    return _timed_run("var_frac_hardy_const")
