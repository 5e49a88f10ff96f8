import pytest
from hypothesis import settings

from ma_bench import SystemParams

# Property tests draw the same examples on every run and have no time limit;
# each test sets only its own max_examples.
settings.register_profile("ma-bench", deadline=None, derandomize=True)
settings.load_profile("ma-bench")


@pytest.fixture
def params():
    """Reference parameter set: 1 MHz band, 1 s slot, 1000-bit packets,
    0 dB cell-edge SNR, path-loss exponent 4, minima 1 ms / 1 kHz."""
    return SystemParams()
