import ast
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

from ma_bench import SystemParams, sim

# Property tests draw the same examples on every run and have no time limit;
# each test sets only its own max_examples.
settings.register_profile("ma-bench", deadline=None, derandomize=True)
settings.load_profile("ma-bench")


@pytest.fixture(autouse=True)
def no_process_left():
    """Fails a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:   # no child at all
        return
    pytest.fail(f"the test left a child process ({'running' if pid == 0 else pid})")


@pytest.fixture
def in_forked_share(monkeypatch):
    """A function that sets sweeps to two CPUs and makes each forked share
    call ``act()`` as it seeds its blocks' generators; share 0, run in the
    sweeping process, draws as usual."""
    sweeping = os.getpid()
    seed_share = sim.trial_rngs

    def install(act):
        def share_rngs(*args, **kwargs):
            if os.getpid() != sweeping:
                act()
            return seed_share(*args, **kwargs)

        monkeypatch.setattr(sim, "trial_rngs", share_rngs)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)

    return install


@pytest.fixture
def fork_log(monkeypatch):
    """Wraps sim._fork so that each forked share's task runs in this process,
    where it is logged as its (point index, blocks) pairs, and the forked
    process only sends the result back. Counts the forks."""
    log = SimpleNamespace(forks=0, submitted=[])
    fork = sim._fork

    def recording_fork(task):
        runs, share = task.args
        log.forks += 1
        log.submitted += [(run.args[4], share) for run in runs]
        result = task()
        return fork(lambda: result)

    monkeypatch.setattr(sim, "_fork", recording_fork)
    return log


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
