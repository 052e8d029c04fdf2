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
