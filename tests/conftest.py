import numpy as np
import pytest

from pagecusum import detectors


@pytest.fixture
def boundary_calls(monkeypatch):
    """Sizes of the indices passed to detectors._boundary (1 for a scalar)."""
    calls = []

    kernel = detectors._boundary

    def counting(m, k, gamma):
        calls.append(np.size(k))
        return kernel(m, k, gamma)

    monkeypatch.setattr(detectors, "_boundary", counting)
    return calls
