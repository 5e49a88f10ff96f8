"""
Seeded Monte Carlo engine.

Every trial realizes one slot: Poisson arrivals, then the scheme's admission
or random-access rules. Trials run in blocks of BLOCK_TRIALS, each on the
substream of (master_seed, point index, block index), so a sweep is
bit-identical for any worker count. A coordinated slot draws its gains
strongest first from exponential spacings and computes only the prefix
admission reads: admission stops at the first device that does not fit, or,
for FDMA and TDMA, once every unread device would fit at the cell-edge
demand (the unread chunks' random draws are still made, so the block's next
slot draws the same numbers). A random-access block is array operations and
places no device.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

# make_device_set, channel_gain, sample_placement are not called here: the
# engine draws no full placement. bench/tracing.py wraps these names here.
from .model import (COORDINATED, FAMILIES, FDMA, NOMA, SCHEMES, TDMA,
                    UNCOORDINATED, StrongestFirst, SystemParams, TrafficModel,
                    channel_gain, make_device_set, sample_arrivals,
                    sample_placement, trial_rng)
from . import coordinated as co
from . import uncoordinated as un

# Trials per substream. Fixed, so the results do not depend on the worker count.
BLOCK_TRIALS = 64
# Block indices are substream keys, which lie in [0, 2**32) (trial_rng).
MAX_TRIALS = BLOCK_TRIALS << 32
# Largest mean numpy's Poisson sampler draws (int64 max less ten standard
# deviations): a larger arrival_rate * slot_s cannot be simulated.
POISSON_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))
# int64 values a chunk of the collision step holds at once (96 KB), or one
# slot's worth if more. glibc keeps 128 KB atop the heap when it trims it,
# so every chunk reuses resident pages; larger chunks can, depending on the
# heap layout, be trimmed off the heap and faulted back in on every chunk.
_CHUNK_VALUES = 12288


@dataclass(frozen=True)
class SchemeConfig:
    """What to simulate: a family, a scheme, and its knobs.

    For uncoordinated schemes the concrete broadcast design is load
    dependent; leave ``design`` unset and the sweep derives it per arrival
    rate (optimizer for fdma/tdma, power-control fixed point for noma).
    """

    family: str                                   # coordinated | uncoordinated
    scheme: str                                   # fdma | tdma | noma
    enforce_minimum: bool = False                 # coordinated partition minima
    design: un.UncoordinatedDesign | None = None
    noma_rule: str = un.NOMINAL

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.design is not None and self.tag != f"{UNCOORDINATED}-{self.design.scheme}":
            raise ValueError(f"{self.tag} cannot run a {self.design.scheme} design")

    @property
    def tag(self) -> str:
        return f"{self.family}-{self.scheme}"


@dataclass(frozen=True, eq=False)
class TrialCounts:
    """Per-trial counts of one sweep point, in trial order."""

    arrivals: np.ndarray   # devices with a packet
    served: np.ndarray     # packets delivered


@dataclass(frozen=True)
class TrialStats:
    """Sample statistics over a batch of trials."""

    count: int
    mean_served: float
    std_served: float
    mean_throughput_pps: float
    ci95_halfwidth_pps: float


@dataclass(frozen=True)
class SweepRow:
    """One (scheme, arrival rate) result."""

    scheme: str
    lam: float                  # arrival rate, packets per second
    trials: int
    mean_throughput_pps: float
    ci95_halfwidth: float       # packets per second
    seed: int
    params_digest: str


def resolve_design(config: SchemeConfig, params: SystemParams,
                   traffic: TrafficModel) -> SchemeConfig:
    """Fill in the load-dependent broadcast design for uncoordinated runs."""
    if config.family != UNCOORDINATED or config.design is not None:
        return config
    if config.scheme == NOMA:
        design = un.noma_design(params, traffic, config.noma_rule)
    else:
        design = un.optimize_design(config.scheme, params, traffic)
    return replace(config, design=design)


def run_trial(config: SchemeConfig, params: SystemParams, arrivals: int,
              rng: np.random.Generator) -> int:
    """Count the devices admitted in one coordinated slot with ``arrivals``
    devices: their gains are drawn strongest first, as far as admission reads."""
    devices = StrongestFirst(arrivals, params.pathloss_exp, rng)
    if config.scheme == FDMA:
        return co.fdma_admitted_count(devices, params, config.enforce_minimum)
    if config.scheme == TDMA:
        return co.tdma_admitted_count(devices, params, config.enforce_minimum)
    return co.noma_admitted_count(devices, params)


def _alone(transmitting: np.ndarray, partitions: int,
           rng: np.random.Generator) -> np.ndarray:
    """Per slot, the transmitters alone in the partition each picked uniformly.

    A chunk of slots holds about _CHUNK_VALUES values at once: keys and their
    offsets, then keys and occupancy counts. The picks are one stream of
    draws, so the chunk size does not change the result."""
    mean = transmitting.mean()
    step = max(1, int(_CHUNK_VALUES // (mean + max(mean, partitions))))
    offsets = np.arange(0, min(step, transmitting.size) * partitions, partitions)
    return np.concatenate([_alone_in_chunk(transmitting[first:first + step], offsets,
                                           partitions, rng)
                           for first in range(0, transmitting.size, step)])


def _alone_in_chunk(chunk: np.ndarray, offsets: np.ndarray, partitions: int,
                    rng: np.random.Generator) -> np.ndarray:
    keys = np.repeat(offsets[:chunk.size], chunk)
    keys += rng.integers(0, partitions, size=keys.size)
    occupancy = np.bincount(keys, minlength=chunk.size * partitions)
    np.equal(occupancy, 1, out=occupancy)   # summing a bool mask would copy it as int64
    return occupancy.reshape(chunk.size, -1).sum(axis=1)


def _run_blocks(config: SchemeConfig, params: SystemParams, traffic: TrafficModel,
                master_seed: int, point_index: int, trials: int,
                blocks: range) -> TrialCounts:
    arrivals, served = [], []
    for block in blocks:
        rng = trial_rng(master_seed, point_index, block)
        arrivals.append(sample_arrivals(traffic, params.slot_s, rng, size=min(
            BLOCK_TRIALS, trials - block * BLOCK_TRIALS)))
        if config.family == COORDINATED:
            served.append([run_trial(config, params, int(n), rng) for n in arrivals[-1]])
            continue
        design = config.design
        # Binomial(active, p_tx): how many i.i.d. uniform placements afford it
        transmitting = rng.binomial(rng.binomial(arrivals[-1], design.access_prob),
                                    un.transmit_probability(design, params))
        if design.scheme == NOMA:   # all or nothing: the cancellation chain
            served.append(np.where(un.noma_supported(
                transmitting, design.target_snr, params), transmitting, 0))
        else:
            served.append(_alone(transmitting, design.partitions, rng))
    return TrialCounts(np.concatenate(arrivals), np.concatenate(served))


def _check_trials(trials: int):
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}] (BLOCK_TRIALS * 2**32: "
                         f"block indices are substream keys), got {trials}")


def _check_load(traffic: TrafficModel, params: SystemParams):
    mean = traffic.arrival_rate * params.slot_s   # the Poisson mean sample_arrivals draws
    if mean > POISSON_MAX:
        raise ValueError(f"arrival_rate * slot_s = {mean:g} exceeds {POISSON_MAX:g}, the "
                         "largest Poisson mean numpy draws arrivals from")


def simulate_point(config: SchemeConfig, params: SystemParams, traffic: TrafficModel,
                   master_seed: int, point_index: int, trials: int) -> TrialCounts:
    """Per-trial counts of ``trials`` slots at one load, from the substreams
    of (master_seed, point_index). Uncoordinated schemes need a concrete
    design (see resolve_design)."""
    _check_trials(trials)
    _check_load(traffic, params)
    if config.family == UNCOORDINATED and config.design is None:
        raise ValueError("uncoordinated trials need a concrete design (resolve_design)")
    return _run_blocks(config, params, traffic, master_seed, point_index, trials,
                       range(-(-trials // BLOCK_TRIALS)))


def aggregate(served, params: SystemParams) -> TrialStats:
    """Mean, sample standard deviation and normal 95% half-width of served counts."""
    served = np.asarray(served, dtype=float)
    if not served.size:
        raise ValueError("no trial outcomes to aggregate")
    mean = float(served.mean())
    std = float(served.std(ddof=1)) if served.size > 1 else 0.0
    return TrialStats(served.size, mean, std, mean / params.slot_s,
                      1.96 * std / math.sqrt(served.size) / params.slot_s)


def _checked_grid(lambda_grid) -> list[float]:
    grid = [float(lam) for lam in lambda_grid]
    if not grid:
        raise ValueError("lambda_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda_grid must be strictly increasing")
    return grid


def _run_share(runs: list[partial], share: range) -> list[np.ndarray]:
    """Served counts of one share of blocks at every point."""
    return [run(share).served for run in runs]


def _usable_cpus() -> int:
    """The CPUs this process may use; 1 without os.fork (every share runs here)."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(task) -> tuple[int, int]:
    """Run ``task()`` in a forked process; return its pid and the read end of
    a pipe that carries its pickled result, or the exception it raised."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    try:   # leaves only through os._exit: no atexit handler, no stdio flush
        try:
            result = task()
        except BaseException as exc:
            result = exc
        try:
            payload = pickle.dumps(result)
        except Exception as exc:   # e.g. an exception pickle cannot carry
            payload = pickle.dumps(ChildProcessError(
                f"a sweep process could not send {result!r}: {exc}"))
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _received(payload: bytes, status: int) -> list[np.ndarray]:
    """What a forked share sent, given its wait status: its result, or raises
    its exception, or ChildProcessError if nothing readable came."""
    try:
        result = pickle.loads(payload)
    except Exception as exc:
        import signal   # here and below: only a failed sweep loads it
        code = os.waitstatus_to_exitcode(status)
        how = f"by {signal.Signals(-code).name}" if code < 0 else f"with exit code {code}"
        raise ChildProcessError(f"a sweep process died {how}" + (
            f" and sent an unreadable result: {exc}" if payload else "")) from None
    if isinstance(result, BaseException):
        raise result
    return result


def run_sweep(config: SchemeConfig, params: SystemParams, lambda_grid,
              trials: int, master_seed: int, workers: int = 1) -> list[SweepRow]:
    """One SweepRow per arrival rate.

    Substreams are keyed on (master_seed, point index, block index), so
    equal inputs and master_seed give bit-identical rows for any worker
    count. Each point's blocks are split into at most ``workers`` contiguous
    shares (``workers`` capped by _usable_cpus), merged by block index. This
    process runs share 0 of every point; a process forked per other share
    runs it over every point, so no point waits for the one before it, and
    sends its counts back through a pipe. Every point's design is resolved
    first, so a design error raises before any fork. A share's exception is
    raised here; a forked process that dies raises ChildProcessError. No
    forked process outlives the call.
    """
    grid = _checked_grid(lambda_grid)
    _check_trials(trials)
    if workers < 1:
        raise ValueError("workers must be >= 1")

    blocks = range(-(-trials // BLOCK_TRIALS))
    step = -(-len(blocks) // min(workers, _usable_cpus()))
    shares = [blocks[first:first + step] for first in range(0, len(blocks), step)]
    runs = []
    for index, lam in enumerate(grid):
        traffic = TrafficModel(lam)
        runs.append(partial(_run_blocks, resolve_design(config, params, traffic), params,
                            traffic, master_seed, index, trials))
        _check_load(traffic, params)

    children = []   # (pid, read fd) of each share after the first, until reaped
    try:
        for share in shares[1:]:
            children.append(_fork(partial(_run_share, runs, share)))
        parts = [_run_share(runs, shares[0])]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(0)[1])
            parts.append(_received(payload, status))
    finally:
        for pid, read in children:   # not reaped: a fork, share 0 or a join raised
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    served = parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]

    rows, digest = [], params.digest()
    for lam, counts in zip(grid, served):
        stats = aggregate(counts, params)
        rows.append(SweepRow(config.tag, lam, trials, stats.mean_throughput_pps,
                             stats.ci95_halfwidth_pps, master_seed, digest))
    return rows


def analytic_rows(config: SchemeConfig, params: SystemParams, lambda_grid,
                  master_seed: int) -> list[SweepRow]:
    """Closed-form counterpart of run_sweep for uncoordinated schemes.

    Rows carry the scheme tag suffixed with ``-analytic`` and trials = 1 (a
    single deterministic evaluation). The grid must be non-empty and strictly
    increasing, as for run_sweep. Coordinated schemes have no closed form and
    are rejected.
    """
    if config.family != UNCOORDINATED:
        raise ValueError(f"{config.tag}: coordinated schemes have no closed form; "
                         "use mode=montecarlo or mode=both")
    rows, digest = [], params.digest()
    for lam in _checked_grid(lambda_grid):
        traffic = TrafficModel(lam)
        concrete = resolve_design(config, params, traffic)
        analysis = un.uncoordinated_throughput(concrete.design, params, traffic)
        rows.append(SweepRow(concrete.tag + "-analytic", lam, 1,
                             analysis.expected_success / params.slot_s, 0.0,
                             master_seed, digest))
    return rows
