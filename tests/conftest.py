import ast
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.fixture
def fresh_modules():
    """A function that runs Python ``code`` in a fresh interpreter, with
    ``src`` on PYTHONPATH, and returns which of the named ``modules`` it has
    loaded by the end, in the order named."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(code: str, modules: tuple[str, ...]) -> list[str]:
        probe = f"{code}\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        return ast.literal_eval(result.stdout.splitlines()[-1])

    return run
