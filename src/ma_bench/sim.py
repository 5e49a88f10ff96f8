"""
Seeded Monte Carlo engine.

Every trial realizes one slot: Poisson arrivals, then the scheme's admission
or random-access rules. Trials run in blocks of BLOCK_TRIALS, each on the
substream of (master_seed, point index, block index), so a sweep is
bit-identical for any worker count. A coordinated block draws its arrivals
from its generator, and each of its slots draws its gains from its own,
keyed (master_seed, point index, block index, slot + 1), so every scheme
sees the same placements. A share of a sweep hashes every key it reads in
one vectorised stream (_keys, model.trial_rngs) and makes each generator as
it is used. A slot draws its gains strongest first from sorted uniforms under
a Beta boundary and only as far as admission reads: admission stops at the
first device that does not fit, or, for FDMA and TDMA, once every unread
device would fit at the cell-edge demand. NOMA may also stop inside a chunk
it has drawn but not sorted, once one of its devices proves that no unread
one lowers the count. A random-access slot (_random_access) draws its served
count first, and its arrivals only for a caller that reads them.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

# make_device_set, channel_gain, sample_placement are not called here: the
# engine draws no full placement; nor trial_rng, as trial_rngs seeds every
# block. bench/tracing.py wraps these names here.
from .model import (FAMILIES, FDMA, NOMA, SCHEMES, TDMA, UNCOORDINATED, StrongestFirst,
                    SystemParams, TrafficModel, channel_gain, make_device_set,
                    sample_arrivals, sample_placement, trial_rng, trial_rngs)
from . import coordinated as co
from . import uncoordinated as un

# Trials per substream. Fixed, so the results do not depend on the worker count.
BLOCK_TRIALS = 64
# Block indices are substream keys, which lie in [0, 2**32) (trial_rng).
MAX_TRIALS = BLOCK_TRIALS << 32
# Largest mean numpy's Poisson sampler draws (int64 max less ten standard
# deviations): a larger arrival_rate * slot_s cannot be simulated.
POISSON_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))
MODES = ("analytic", "montecarlo", "both")   # a sweep's rows: closed form, simulated, or both


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
    design = _design(config, params, traffic)
    return config if design is config.design else replace(config, design=design)


def _design(config: SchemeConfig, params: SystemParams, traffic: TrafficModel):
    """The config's design at this load: its own (None if coordinated), else derived."""
    if config.family != UNCOORDINATED or config.design is not None:
        return config.design
    if config.scheme == NOMA:
        return un.noma_design(params, traffic, config.noma_rule)
    return un.optimize_design(config.scheme, params, traffic)


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


def _random_access(design: un.UncoordinatedDesign, params: SystemParams, offered: float):
    """draw(rng, size): the served counts of ``size`` slots at ``offered`` mean
    arrivals, and a function that then draws their arrivals from the same
    generator, by their exact joint law. Transmitting, silent and idle devices
    are independent Poisson counts; NOMA serves all T transmitters or none.
    FDMA/TDMA occupancies are i.i.d. Poisson(mu = m / N) (Poisson splitting):
    Binomial(N, mu e^-mu) partitions hold one, and the others Poisson(mu) given
    not 1 (a multinomial over un.poisson_law, or if mu >= N, redrawn while 1)."""
    access, p_tx = design.access_prob, un.transmit_probability(design, params)
    m, partitions = offered * access * p_tx, design.partitions
    mean, lone = m / partitions, un.singleton_probability(m / partitions)

    @cache
    def window():   # built on first use: ~77 sqrt(mu) + 475 < N + 2000 wide
        first, law = un.poisson_law(mean)
        occupancy = np.arange(first, first + law.size)
        return occupancy[occupancy != 1], law[occupancy != 1] / law[occupancy != 1].sum()

    def others(rng, served):   # transmitters in the partitions that do not hold one
        if partitions > mean:
            occupancy, law = window()
            return rng.multinomial(partitions - served, law) @ occupancy
        occupancies = rng.poisson(mean, (served.size, partitions))
        occupancies[np.arange(partitions) < served[:, None]] = 0   # the lone: in served
        while (redo := occupancies == 1).any():
            occupancies[redo] = rng.poisson(mean, np.count_nonzero(redo))
        return occupancies.sum(axis=1)

    def quiet(rng, size):   # the active devices that stay silent, then the idle ones
        return (rng.poisson(offered * access * (1.0 - p_tx), size)
                + rng.poisson(offered * (1.0 - access), size))

    def draw(rng, size):
        if design.scheme == NOMA:   # all or nothing: the cancellation chain
            transmitting = rng.poisson(m, size)
            return (np.where(un.noma_supported(transmitting, design.target_snr, params),
                             transmitting, 0), lambda: transmitting + quiet(rng, size))
        served = rng.binomial(partitions, lone, size)
        return served, lambda: served + others(rng, served) + quiet(rng, size)

    return draw


def _run_blocks(config: SchemeConfig, params: SystemParams, traffic: TrafficModel,
                master_seed: int, point_index: int, trials: int, blocks: range, rngs):
    """Per block: its served counts and a function that returns its arrivals,
    drawn from the block's generator, the next of ``rngs`` (in _keys order);
    then each coordinated slot draws its gains from the next one."""
    if config.family == UNCOORDINATED:
        draw = _random_access(config.design, params, traffic.arrival_rate * params.slot_s)
    else:
        def draw(rng, size):
            arrivals = sample_arrivals(traffic, params.slot_s, rng, size=size)
            return ([run_trial(config, params, int(n), slot) for n, slot in zip(arrivals, rngs)],
                    lambda: arrivals)
    for block in blocks:
        yield draw(next(rngs), min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS))


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
    run = partial(_run_blocks, config, params, traffic, master_seed, point_index, trials)
    blocks = range(-(-trials // BLOCK_TRIALS))
    served, arrivals = zip(*run(blocks, trial_rngs(_keys([run], blocks))))
    return TrialCounts(np.concatenate([draw() for draw in arrivals]), np.concatenate(served))


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


def _keys(runs: list[partial], share: range):
    """The keys _run_blocks reads, in order, for ``share`` at each run's point
    (a run binds it up to its trials): per block, its own key padded with a
    zero as trial_rng pads it, then each coordinated slot's, (..., slot + 1)."""
    for config, _, _, master_seed, point_index, trials in (run.args for run in runs):
        for block in share:
            yield master_seed, point_index, block, 0
            if config.family != UNCOORDINATED:
                for slot in range(1, min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS) + 1):
                    yield master_seed, point_index, block, slot


def _run_share(runs: list[partial], share: range) -> list[np.ndarray]:
    """Served counts of one share of blocks at every point (no arrivals drawn)."""
    rngs = trial_rngs(_keys(runs, share))
    return [np.concatenate([served for served, _ in run(share, rngs)]) for run in runs]


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


def sweep(configs, params: SystemParams, lambda_grid, trials: int, master_seed: int,
          workers: int = 1, mode: str = "both") -> list[SweepRow]:
    """A command's rows in CSV order: per config, its analytic rows (mode
    ``analytic``, which rejects coordinated configs, or ``both`` if
    uncoordinated; tag suffixed ``-analytic``, trials = 1), then its Monte
    Carlo rows (mode ``montecarlo`` or ``both``).

    The mode and grid are checked first, then trials and workers if any row
    is simulated; then each (config, rate) design is resolved once, all before
    any load is checked or process forked. Substreams are keyed on
    (master_seed, rate index, block index), so the rows are bit-identical
    for any worker count. Each point's blocks are split into at most
    ``workers`` contiguous shares (capped by _usable_cpus). This process
    runs share 0 of every config's every point; a process forked per other
    share runs that share of all of them and sends its counts back through a
    pipe. A share's exception is raised here; a forked process that dies
    raises ChildProcessError. No forked process outlives the call.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    grid = _checked_grid(lambda_grid)
    simulate = mode != "analytic"
    if simulate:
        _check_trials(trials)
        if workers < 1:
            raise ValueError("workers must be >= 1")
    traffics = [TrafficModel(lam) for lam in grid]
    tables, runs, digest = [], [], params.digest()   # a table per config; every point's run
    for config in configs:
        analytic = mode == "analytic" or (mode == "both" and config.family == UNCOORDINATED)
        if analytic and config.family != UNCOORDINATED:
            raise ValueError(f"{config.tag}: coordinated schemes have no closed form; "
                             "use mode=montecarlo or mode=both")
        tables.append([])
        for index, (lam, traffic) in enumerate(zip(grid, traffics)):
            design = _design(config, params, traffic)
            if analytic:
                success = un.uncoordinated_throughput(design, params, traffic).expected_success
                tables[-1].append(SweepRow(config.tag + "-analytic", lam, 1,
                                           success / params.slot_s, 0.0, master_seed, digest))
            if simulate:
                runs.append(partial(_run_blocks, replace(config, design=design), params,
                                    traffic, master_seed, index, trials))
    if not simulate:
        return [row for table in tables for row in table]
    for traffic in traffics:
        _check_load(traffic, params)

    blocks = range(-(-trials // BLOCK_TRIALS))
    step = -(-len(blocks) // min(workers, _usable_cpus()))
    shares = [blocks[first:first + step] for first in range(0, len(blocks), step)]
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
    served = iter(parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)])

    for config, table in zip(configs, tables):
        for lam, counts in zip(grid, served):
            stats = aggregate(counts, params)
            table.append(SweepRow(config.tag, lam, trials, stats.mean_throughput_pps,
                                  stats.ci95_halfwidth_pps, master_seed, digest))
    return [row for table in tables for row in table]


def run_sweep(config: SchemeConfig, params: SystemParams, lambda_grid,
              trials: int, master_seed: int, workers: int = 1) -> list[SweepRow]:
    """One Monte Carlo SweepRow per arrival rate (see sweep)."""
    return sweep([config], params, lambda_grid, trials, master_seed, workers, "montecarlo")


def analytic_rows(config: SchemeConfig, params: SystemParams, lambda_grid,
                  master_seed: int) -> list[SweepRow]:
    """Closed-form counterpart of run_sweep for uncoordinated schemes (see sweep)."""
    return sweep([config], params, lambda_grid, 1, master_seed, mode="analytic")
