import sys

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter):
    golden = sys.modules.get("test_cli_golden")
    if golden is not None:
        terminalreporter.write_line(f"CLI golden gate: {golden.MODE}")


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.Philox(12345))


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    k = m @ m.conj().T
    return k / np.trace(k).real
