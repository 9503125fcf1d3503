import os

import pytest

from prrseq.registers import prr_step_value

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def load_rows(name):
    with open(os.path.join(DATA_DIR, name)) as fh:
        return fh.read().split()


@pytest.fixture(scope="session")
def table1_rows():
    return load_rows("table1_n6.txt")


@pytest.fixture(scope="session")
def table3_rows():
    return load_rows("table3_n6.txt")


def _cycle_states(cycle):
    """The values of a register cycle's states in walk order: period PRR
    steps from its representative."""
    n = cycle.representative.n
    mask = (1 << n) - 1
    v = cycle.representative.value
    states = []
    for _ in range(cycle.period):
        states.append(v)
        v = prr_step_value(v, n, mask)
    return states


@pytest.fixture(scope="session")
def cycle_states():
    return _cycle_states
