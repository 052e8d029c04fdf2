"""Helpers shared by the test modules."""

import pytest

from kaleido.algebra import primitive_element


def _power_walk(field, e, steps=None):
    """Class indices by their definition: g^k lies in class k mod e.

    Walks the first ``steps`` powers of the canonical primitive element g
    (all q - 1 of them by default). This is the reference that
    ``CyclotomicTable``, which reads classes off the power character, is
    checked against.
    """
    g = primitive_element(field)
    classes = {}
    x = field.one
    for k in range(field.order - 1 if steps is None else steps):
        classes[x] = k % e
        x = field.mul(x, g)
    return classes


@pytest.fixture
def power_walk():
    return _power_walk


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        help="also run the tests marked slow, which take minutes",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: takes minutes; skipped unless --run-slow is given"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; pass --run-slow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
