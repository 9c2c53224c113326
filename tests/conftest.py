import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def traced_peak():
    """Run ``fn()`` and return (result, peak bytes numpy and Python allocated
    above what was live when it started), as tracemalloc sees them."""

    def _measure(fn):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - live
        finally:
            if not was_tracing:
                tracemalloc.stop()

    return _measure


@pytest.fixture
def acceptance():
    """Record and assert one PASS/FAIL line per acceptance criterion."""

    def _report(number: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
