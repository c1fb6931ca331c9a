import pytest

from sphere_strichartz import grids


@pytest.fixture
def criterion_report(request):
    """Emit one pass/fail line per acceptance criterion.

    Lines go through the terminal reporter so they stay visible in captured
    runs (plain `pytest -v`), and through print for unbuffered runs.
    """
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def report(criterion: str, ok: bool, detail: str) -> None:
        line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
        print(line)
        if reporter is not None:
            reporter.write_line("\n" + line)

    return report


@pytest.fixture
def fresh_legendre_caches():
    """Start and end with empty Legendre caches, so large tables do not outlive a test."""
    caches = (grids._legendre_tables, grids._mirror_fixes, grids._whole_mirrored_table)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
