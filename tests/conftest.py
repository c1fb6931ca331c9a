import pytest

from sphere_strichartz import grids


@pytest.fixture
def criterion_report(request):
    """Emit one pass/fail line per acceptance criterion, once.

    Lines go through the terminal reporter, or are printed without one
    (`-p no:terminal`).  Run pytest with `-s` to see them: in a captured run
    they are part of each test's captured output.
    """
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def report(criterion: str, ok: bool, detail: str) -> None:
        line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
        if reporter is None:
            print(line)
        else:
            reporter.write_line("\n" + line)

    return report


@pytest.fixture
def fresh_legendre_caches():
    """Start and end with an empty Legendre table cache, so tables do not outlive a test."""
    grids._legendre_tables.cache_clear()
    yield
    grids._legendre_tables.cache_clear()
