"""Marks the full-scale acceptance runs as ``slow``.

``pytest -m "not slow"`` skips them for a loop of a few seconds; a plain
``pytest`` still runs everything.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: full-scale acceptance runs (minutes)")


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)
