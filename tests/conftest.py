import gc
import threading

import numpy as np
import pytest

from fsolink.field import ComplexFieldGrid, GridSpec


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(64, 0.64, 1.55e-6)


@pytest.fixture(scope="session")
def grid128():
    return GridSpec(128, 1.0, 1.55e-6)


@pytest.fixture()
def random_smooth_field(grid128):
    """Band-limited random complex field, reproducible."""
    rng = np.random.default_rng(42)
    n = grid128.n
    spec = np.zeros((n, n), dtype=np.complex128)
    keep = 10  # low-pass: keep only slow spatial frequencies
    block = rng.standard_normal((2 * keep, 2 * keep)) + 1j * rng.standard_normal((2 * keep, 2 * keep))
    spec[:keep, :keep] = block[:keep, :keep]
    spec[-keep:, :keep] = block[keep:, :keep]
    spec[:keep, -keep:] = block[:keep, keep:]
    spec[-keep:, -keep:] = block[keep:, keep:]
    samples = np.fft.ifft2(spec) * n
    return ComplexFieldGrid(samples, grid128.extent_m, grid128.wavelength_m)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that ends with more live threads than it started with,
    after a collection has closed any generator it dropped."""
    before = threading.active_count()
    yield
    if threading.active_count() > before:
        gc.collect()
    if threading.active_count() > before:
        names = sorted(t.name for t in threading.enumerate())
        pytest.fail(f"{threading.active_count() - before} thread(s) left running: {names}")
