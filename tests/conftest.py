"""The opt-in long tier: tests marked `long` run only under --run-long.

Without the option they are deselected, not skipped, so the plain command
neither runs them nor reports them as skips.  Run the tier alone with

    PYTHONPATH=src python -m pytest --run-long -m long
"""


def pytest_addoption(parser):
    parser.addoption("--run-long", action="store_true", help="also collect the tests marked long")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    long = [item for item in items if item.get_closest_marker("long")]
    if long:
        config.hook.pytest_deselected(items=long)
        items[:] = [item for item in items if not item.get_closest_marker("long")]
