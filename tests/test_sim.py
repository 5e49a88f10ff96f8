import math
import os
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_bench import (BLOCK_TRIALS, Infeasible, SystemParams, TrafficModel,
                      UncoordinatedDesign, aggregate, analytic_rows,
                      noma_design, optimize_design, resolve_design,
                      run_sweep, simulate_point, uncoordinated_throughput)
from ma_bench import model, sim
from ma_bench.sim import SchemeConfig
from ma_bench.model import channel_gain, sample_placement, trial_rng
from ma_bench.uncoordinated import exact_mean_served, noma_supported, transmit_probability

SEED = 42


def serve_counts(config, params, lam, trials, seed=SEED):
    traffic = TrafficModel(lam)
    concrete = resolve_design(config, params, traffic)
    return simulate_point(concrete, params, traffic, seed, 0, trials).served.astype(float)


def test_zero_rate_serves_nothing(params):
    for config in (SchemeConfig("coordinated", "noma"),
                   SchemeConfig("uncoordinated", "fdma",
                                design=UncoordinatedDesign("fdma", 1.0, 10))):
        counts = simulate_point(config, params, TrafficModel(0.0), SEED, 0, 70)
        assert not counts.arrivals.any()
        assert not counts.served.any()


def test_single_partition_with_two_transmitters_collides(params):
    # every device is power-feasible on the single subchannel, so a slot
    # delivers its packet exactly when it has one arrival: two is a certain loss
    config = SchemeConfig("uncoordinated", "fdma", design=UncoordinatedDesign("fdma", 1.0, 1))
    counts = simulate_point(config, params, TrafficModel(2.0), SEED, 0, 500)
    assert (counts.arrivals == 2).any()
    assert np.array_equal(counts.served, (counts.arrivals == 1).astype(int))


def test_trial_requires_resolved_design(params):
    config = SchemeConfig("uncoordinated", "tdma")
    with pytest.raises(ValueError):
        simulate_point(config, params, TrafficModel(10.0), SEED, 0, 1)
    with pytest.raises(ValueError):
        simulate_point(resolve_design(config, params, TrafficModel(10.0)), params,
                       TrafficModel(10.0), SEED, 0, 0)


def test_trials_are_reproducible(params):
    config = SchemeConfig("uncoordinated", "fdma",
                          design=UncoordinatedDesign("fdma", 0.7, 100))
    traffic = TrafficModel(500.0)
    a = simulate_point(config, params, traffic, SEED, 3, 100)
    b = simulate_point(config, params, traffic, SEED, 3, 100)
    assert np.array_equal(a.arrivals, b.arrivals) and np.array_equal(a.served, b.served)
    c = simulate_point(config, params, traffic, SEED, 4, 100)
    assert not np.array_equal(a.arrivals, c.arrivals)
    # a whole block draws the same slots whatever the trial count
    d = simulate_point(config, params, traffic, SEED, 3, BLOCK_TRIALS + 1)
    assert np.array_equal(d.served[:BLOCK_TRIALS], a.served[:BLOCK_TRIALS])


@settings(max_examples=150)
@given(scheme=st.sampled_from(["fdma", "tdma"]), access_prob=st.floats(0.0, 1.0),
       partitions=st.integers(1, 2000), lam=st.floats(0.0, 3e4))
def test_served_bounded_by_arrivals_and_partitions(scheme, access_prob, partitions, lam):
    params = SystemParams()
    design = UncoordinatedDesign(scheme, access_prob, partitions)
    traffic = TrafficModel(lam)
    counts = simulate_point(SchemeConfig("uncoordinated", scheme, design=design),
                            params, traffic, SEED, 0, 70)
    assert counts.served.shape == counts.arrivals.shape == (70,)
    assert (counts.served >= 0).all()
    assert (counts.served <= np.minimum(counts.arrivals, design.partitions)).all()


def test_coordinated_served_bounded_by_arrivals(params):
    counts = simulate_point(SchemeConfig("coordinated", "tdma"), params, TrafficModel(300.0),
                            SEED, 0, 50)
    assert ((0 <= counts.served) & (counts.served <= counts.arrivals)).all()


def test_aggregate_examples(params):
    stats = aggregate(np.full(4, 3), params)
    assert stats.mean_served == 3.0
    assert stats.ci95_halfwidth_pps == 0.0

    two = np.array([0, 2])
    stats = aggregate(two, params)
    assert stats.mean_served == 1.0
    assert stats.std_served == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert stats.ci95_halfwidth_pps == pytest.approx(1.96 * math.sqrt(2.0) / math.sqrt(2.0), rel=1e-12)

    assert aggregate(two[::-1], params) == stats   # permutation invariant
    with pytest.raises(ValueError):
        aggregate(np.array([]), params)


def test_single_trial_aggregate_has_zero_halfwidth(params):
    stats = aggregate(np.array([1]), params)
    assert stats.ci95_halfwidth_pps == 0.0


def test_sweep_rows_and_determinism(params):
    config = SchemeConfig("uncoordinated", "fdma")
    rows1 = run_sweep(config, params, [0.0, 200.0], trials=50, master_seed=SEED)
    rows2 = run_sweep(config, params, [0.0, 200.0], trials=50, master_seed=SEED)
    assert rows1 == rows2
    assert rows1[0].mean_throughput_pps == 0.0
    assert rows1[0].ci95_halfwidth == 0.0
    assert rows1[0].params_digest == params.digest()
    assert all(row.seed == SEED for row in rows1)


def test_sweep_workers_do_not_change_results(params, monkeypatch):
    # one trial, part of one block, and two blocks plus part of a third;
    # four CPUs, so that workers=4 splits the blocks four ways
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
    for config in (SchemeConfig("uncoordinated", "tdma"), SchemeConfig("coordinated", "noma")):
        for trials in (1, 60, 2 * BLOCK_TRIALS + 2):
            serial = run_sweep(config, params, [100.0, 400.0], trials, SEED, workers=1)
            for workers in (2, 3, 4):
                assert run_sweep(config, params, [100.0, 400.0], trials, SEED,
                                 workers=workers) == serial


def test_sweep_pool_holds_no_more_processes_than_shares(params, fork_log, monkeypatch):
    # this process runs share 0 of every point; one process is forked per
    # other share, and none for a single share
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 8)
    ran = []
    run_blocks = sim._run_blocks

    def recording_run_blocks(*args):
        ran.append((args[4], args[6]))
        return run_blocks(*args)

    monkeypatch.setattr(sim, "_run_blocks", recording_run_blocks)
    config = SchemeConfig("uncoordinated", "tdma")
    grid = [100.0, 400.0]
    for trials, workers, shares in ((100, 8, [range(0, 1), range(1, 2)]),
                                    (1, 2, [range(0, 1)]),
                                    (5 * BLOCK_TRIALS, 3, [range(0, 2), range(2, 4), range(4, 5)])):
        serial = run_sweep(config, params, grid, trials, SEED)
        ran.clear()
        assert run_sweep(config, params, grid, trials, SEED, workers=workers) == serial
        assert fork_log.forks == len(shares) - 1
        others = [(point, share) for point in range(len(grid)) for share in shares[1:]]
        assert Counter(fork_log.submitted) == Counter(others)
        assert Counter(ran) == Counter(others + [(point, shares[0]) for point in range(len(grid))])
        fork_log.forks = 0
        fork_log.submitted.clear()


@pytest.mark.parametrize("cpus", [1, 2, 3, None])
def test_sweep_workers_are_capped_at_the_cpu_count(params, fork_log, monkeypatch, cpus):
    # ten blocks at workers=100000 split into as many shares as the CPUs this
    # process may use, `cpus` of 64; where that is unknown, as many as the
    # CPU count, one if that is unknown too. This process runs one share.
    monkeypatch.setattr(os, "cpu_count", lambda: 64 if cpus else None)
    if cpus:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    config = SchemeConfig("uncoordinated", "tdma")
    rows = run_sweep(config, params, [100.0], 10 * BLOCK_TRIALS, SEED, workers=100_000)
    assert rows == run_sweep(config, params, [100.0], 10 * BLOCK_TRIALS, SEED)
    assert fork_log.forks == (cpus - 1 if cpus else 0)


def test_sweep_without_fork_runs_every_share_here(params, fork_log, monkeypatch):
    monkeypatch.delattr(os, "fork")
    config = SchemeConfig("uncoordinated", "tdma")
    rows = run_sweep(config, params, [100.0], 10 * BLOCK_TRIALS, SEED, workers=2)
    assert rows == run_sweep(config, params, [100.0], 10 * BLOCK_TRIALS, SEED)
    assert fork_log.forks == 0


def test_sweep_design_error_raises_before_any_pool(fork_log, monkeypatch):
    # the NOMA target at the second rate is past the float range; in the
    # three-scheme sweep NOMA comes last, and that rate is also past the
    # Poisson limit: every design is resolved before any load is checked
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    config = SchemeConfig("uncoordinated", "noma")
    configs = [SchemeConfig("coordinated", "tdma"), SchemeConfig("uncoordinated", "fdma"),
               config]
    for run in (lambda: run_sweep(config, SystemParams(slot_s=10.0), [100.0, 1e308],
                                  2 * BLOCK_TRIALS, SEED, workers=2),
                lambda: sim.sweep(configs, SystemParams(slot_s=10.0), [100.0, 1e308],
                                  2 * BLOCK_TRIALS, SEED, workers=2, mode="montecarlo")):
        with pytest.raises(Infeasible, match="float range"):
            run()
        assert fork_log.forks == 0


def test_sweep_share_error_in_a_forked_process_propagates(params, in_forked_share):
    def fail():
        raise RuntimeError("share failed in a forked process")

    in_forked_share(fail)
    with pytest.raises(RuntimeError, match="forked process"):
        run_sweep(SchemeConfig("uncoordinated", "tdma"), params, [100.0, 400.0],
                  2 * BLOCK_TRIALS, SEED, workers=2)


class TwoArgError(Exception):
    """Pickles, but does not unpickle: pickle rebuilds it from one argument."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


def test_sweep_share_result_that_does_not_unpickle_is_a_child_process_error(params,
                                                                            in_forked_share):
    def fail():
        raise TwoArgError("share failed", "a forked process")

    in_forked_share(fail)
    with pytest.raises(ChildProcessError, match="unreadable result"):
        run_sweep(SchemeConfig("uncoordinated", "tdma"), params, [100.0, 400.0],
                  2 * BLOCK_TRIALS, SEED, workers=2)


def test_share_0_error_kills_the_forked_process(params, monkeypatch):
    # the forked share would run for a minute; share 0 fails at once
    sweeping = os.getpid()

    def fail_here_stall_when_forked(*args, **kwargs):
        if os.getpid() != sweeping:
            time.sleep(60)
        raise RuntimeError("share 0 failed")

    monkeypatch.setattr(sim, "trial_rngs", fail_here_stall_when_forked)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="share 0 failed"):
        run_sweep(SchemeConfig("uncoordinated", "tdma"), params, [100.0],
                  2 * BLOCK_TRIALS, SEED, workers=2)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):   # no child left, running or not reaped
        os.waitpid(-1, os.WNOHANG)


def test_monte_carlo_sweep_seeds_each_share_once_and_makes_no_seed_sequence(params,
                                                                            monkeypatch):
    made, seeded, hashed = [], [], []

    class CountedSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    def share_rngs(keys):
        seeded.append(list(keys))
        return seed_share(seeded[-1])

    def hash_keys(keys):
        hashed.append(len(keys))
        return seed_words(keys)

    seed_share, seed_words = sim.trial_rngs, model._seed_words
    monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
    monkeypatch.setattr(sim, "trial_rngs", share_rngs)
    monkeypatch.setattr(model, "_seed_words", hash_keys)
    configs = [SchemeConfig("uncoordinated", "fdma"), SchemeConfig("coordinated", "tdma")]
    rows = sim.sweep(configs, params, [100.0, 400.0], 2 * BLOCK_TRIALS + 1, SEED,
                     mode="montecarlo")
    assert len(rows) == 4
    assert made == []
    # one share: every block of every point, config by config, in one pass;
    # then every coordinated slot of the share (64, 64 and 1 a point), in one
    sizes = (BLOCK_TRIALS, BLOCK_TRIALS, 1)
    assert seeded == [[(SEED, point, block) for point in (0, 1, 0, 1) for block in range(3)],
                      [(SEED, point, block, slot + 1) for point in (0, 1)
                       for block, size in enumerate(sizes) for slot in range(size)]]
    assert hashed == [12, 2 * sum(sizes)]
    np.random.SeedSequence(SEED)   # the count sees numpy's own seeding
    assert made == [(SEED,)]


def test_single_process_sweep_does_not_load_the_pool(fresh_modules):
    # nor does a sweep that forks: each share sends its counts through a pipe
    assert fresh_modules(
        "import ma_bench, ma_bench.cli\n"
        "from ma_bench import SchemeConfig, SystemParams, run_sweep, sim\n"
        "run_sweep(SchemeConfig('uncoordinated', 'tdma'), SystemParams(), [100.0], 70, 42)\n"
        "sim._usable_cpus = lambda: 2\n"
        "run_sweep(SchemeConfig('uncoordinated', 'tdma'), SystemParams(), [100.0], 70, 42,"
        " workers=2)",
        ("multiprocessing", "concurrent.futures")) == []


def test_single_process_runs_load_no_openssl(fresh_modules, tmp_path):
    # The params digest takes CPython's own SHA-256; hashlib would map
    # OpenSSL. (A Monte Carlo run loads it anyway: numpy.random imports hmac,
    # so the substream seeding builds what it takes from numpy.random on
    # first use.)
    commands = [["sweep", "--mode", "analytic", "--schemes", "uncoordinated-fdma",
                 "--output", str(tmp_path / "rows.csv")], ["cap"]]
    assert fresh_modules(
        "from ma_bench import cli\n"
        f"assert [cli.main(argv) for argv in {commands!r}] == [0, 0]",
        ("_hashlib", "ssl", "numpy.random")) == []


def test_digest_falls_back_to_hashlib_without_the_built_in_hashes(fresh_modules):
    assert fresh_modules(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None   # import fails\n"
        "from ma_bench import SystemParams\n"
        "assert SystemParams().digest() == '1622cd6dec97'",
        ("hashlib",)) == ["hashlib"]


def test_sweep_validates_inputs(params):
    config = SchemeConfig("uncoordinated", "fdma")
    with pytest.raises(ValueError):
        run_sweep(config, params, [], 10, SEED)
    with pytest.raises(ValueError):
        run_sweep(config, params, [200.0, 100.0], 10, SEED)
    with pytest.raises(ValueError):
        run_sweep(config, params, [100.0], 0, SEED)
    for workers in (0, -1):
        with pytest.raises(ValueError):
            run_sweep(config, params, [100.0], 10, SEED, workers=workers)


def test_trials_past_the_substream_keys_are_rejected_up_front(params, monkeypatch):
    # block indices are substream keys in [0, 2**32): at most BLOCK_TRIALS * 2**32
    def no_blocks(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(sim, "_run_blocks", no_blocks)
    assert sim.MAX_TRIALS == BLOCK_TRIALS * 2 ** 32
    config = SchemeConfig("coordinated", "tdma")
    for trials in (sim.MAX_TRIALS + 1, 10 ** 21):
        with pytest.raises(ValueError, match="trials"):
            run_sweep(config, params, [100.0], trials, SEED)
        with pytest.raises(ValueError, match="trials"):
            simulate_point(config, params, TrafficModel(100.0), SEED, 0, trials)


def test_arrivals_past_the_poisson_limit_are_rejected_up_front(params, monkeypatch):
    # numpy draws a Poisson mean up to POISSON_MAX and rejects the next float
    assert trial_rng(0).poisson(sim.POISSON_MAX) > 0
    with pytest.raises(ValueError):
        trial_rng(0).poisson(np.nextafter(sim.POISSON_MAX, np.inf))

    def no_blocks(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(sim, "_run_blocks", no_blocks)
    too_high = np.nextafter(sim.POISSON_MAX, np.inf)
    for config in (SchemeConfig("coordinated", "tdma"), SchemeConfig("uncoordinated", "tdma")):
        with pytest.raises(ValueError, match=r"arrival_rate \* slot_s"):
            run_sweep(config, params, [1000.0, too_high], 64, SEED)
    with pytest.raises(ValueError, match=r"arrival_rate \* slot_s"):
        simulate_point(SchemeConfig("coordinated", "tdma"), params, TrafficModel(too_high),
                       SEED, 0, 64)
    # the limit is on the mean per slot: a shorter slot draws the same rate
    with pytest.raises(AssertionError, match="a block ran"):
        run_sweep(SchemeConfig("coordinated", "tdma"), SystemParams(slot_s=0.5),
                  [too_high], 64, SEED)


def test_random_access_mean_tracks_analytic(params):
    # smoke-scale version of the acceptance panel
    lam = 2000.0
    traffic = TrafficModel(lam)
    design = optimize_design("fdma", params, traffic)
    analytic = uncoordinated_throughput(design, params, traffic).expected_success
    served = serve_counts(SchemeConfig("uncoordinated", "fdma", design=design),
                          params, lam, trials=2000)
    se = served.std(ddof=1) / math.sqrt(served.size)
    assert abs(served.mean() - analytic) <= 4.0 * se


@pytest.mark.parametrize("scheme", ["fdma", "tdma", "noma"])
def test_random_access_mean_matches_the_exact_poisson_mean(params, scheme):
    # Two-sided, unlike criterion 5: the engine samples the laws that
    # exact_mean_served averages
    for lam in (1000.0, 5000.0, 20000.0):
        traffic = TrafficModel(lam)
        config = resolve_design(SchemeConfig("uncoordinated", scheme), params, traffic)
        exact = exact_mean_served(config.design, params, traffic)
        served = simulate_point(config, params, traffic, SEED, 0, 4096).served.astype(float)
        se = served.std(ddof=1) / math.sqrt(served.size)
        assert abs(served.mean() - exact) < 4.0 * se, (lam, served.mean(), exact, se)


def test_uncoordinated_noma_all_or_nothing(params):
    # realized slots either deliver every feasible transmitter or none
    traffic = TrafficModel(1200.0)
    design = noma_design(params, traffic)
    config = SchemeConfig("uncoordinated", "noma", design=design)
    served = serve_counts(config, params, 1200.0, trials=400)
    assert set(np.unique(served)) <= {0.0} | set(served[served > 0])
    assert (served == 0).any() and (served > 0).any()
    assert served.max() <= 1442.1950986512280 + 1.0
    # every delivered slot decodes whole; a slot over the most the target
    # supports delivers nothing rather than that most (a cut-off engine
    # would pile its overloaded slots, about half of them, onto it)
    most = max(n for n in range(1, 1500) if noma_supported(n, design.target_snr, params))
    assert noma_supported(served[served > 0], design.target_snr, params).all()
    assert np.count_nonzero(served == most) < 0.05 * served.size


def test_coordinated_noma_serves_everyone_at_light_load(params):
    counts = simulate_point(SchemeConfig("coordinated", "noma"), params,
                            TrafficModel(50.0), SEED, 0, 100)
    assert np.array_equal(counts.served, counts.arrivals)


def test_coordinated_schemes_share_arrivals_and_placements(params, monkeypatch):
    # common random numbers: at each (rate, block, slot) every coordinated
    # scheme gets the same arrival count and a generator in the same state,
    # hence the same StrongestFirst draws; no two slots share a generator
    seen, run_trial = {}, sim.run_trial

    def recorded(config, params, arrivals, rng):
        state = rng.bit_generator.state["state"]
        seen.setdefault(config.scheme, []).append((arrivals, state["state"], state["inc"]))
        return run_trial(config, params, arrivals, rng)

    monkeypatch.setattr(sim, "run_trial", recorded)
    configs = [SchemeConfig("coordinated", scheme) for scheme in ("fdma", "tdma", "noma")]
    sim.sweep(configs, params, [5000.0, 20000.0], BLOCK_TRIALS + 3, SEED, mode="montecarlo")
    assert len(seen["fdma"]) == 2 * (BLOCK_TRIALS + 3)
    assert seen["fdma"] == seen["tdma"] == seen["noma"]
    assert len({slot[1:] for slot in seen["fdma"]}) == len(seen["fdma"])


def test_analytic_rows_uncoordinated_only(params):
    rows = analytic_rows(SchemeConfig("uncoordinated", "noma"), params,
                         [100.0, 1000.0], SEED)
    assert [r.lam for r in rows] == [100.0, 1000.0]
    assert rows[0].scheme == "uncoordinated-noma-analytic"
    assert rows[0].trials == 1
    assert rows[0].mean_throughput_pps == pytest.approx(100.0, rel=1e-9)
    with pytest.raises(ValueError):
        analytic_rows(SchemeConfig("coordinated", "noma"), params, [100.0], SEED)
    # the grid run_sweep accepts: non-empty and strictly increasing
    for grid in ([], [100.0, 100.0], [200.0, 100.0]):
        with pytest.raises(ValueError, match="lambda_grid"):
            analytic_rows(SchemeConfig("uncoordinated", "noma"), params, grid, SEED)


def test_analytic_rows_build_no_scheme_config_per_rate(params, monkeypatch):
    grid = [100.0, 1000.0, 5000.0]
    configs = [SchemeConfig("uncoordinated", scheme) for scheme in ("fdma", "tdma", "noma")]
    configs.append(SchemeConfig("uncoordinated", "fdma",
                                design=UncoordinatedDesign("fdma", 0.5, 10)))
    expected = [[uncoordinated_throughput(resolve_design(config, params, TrafficModel(lam))
                                          .design, params, TrafficModel(lam))
                 .expected_success / params.slot_s for lam in grid] for config in configs]
    built = []
    monkeypatch.setattr(SchemeConfig, "__post_init__", lambda self: built.append(self))
    rows = [analytic_rows(config, params, grid, SEED) for config in configs]
    assert built == []
    assert [[row.mean_throughput_pps for row in part] for part in rows] == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_aggregate_the_served_counts_simulate_point_draws(params, monkeypatch,
                                                                    workers):
    # a sweep draws each block's served counts alone; simulate_point then
    # draws the arrivals from the same generator, so they never move served.
    # Three partitions hold 33 or more transmitters each, so the arrivals come
    # from each partition's occupancy rather than from one multinomial.
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    configs = [SchemeConfig("uncoordinated", scheme) for scheme in ("fdma", "tdma", "noma")]
    configs.append(SchemeConfig("uncoordinated", "tdma",
                                design=UncoordinatedDesign("tdma", 1.0, 3)))
    grid, trials = [100.0, 5000.0, 20000.0], 2 * BLOCK_TRIALS + 5
    rows = sim.sweep(configs, params, grid, trials, SEED, workers, "montecarlo")
    expected = []
    for config in configs:
        for index, traffic in enumerate(map(TrafficModel, grid)):
            stats = aggregate(simulate_point(resolve_design(config, params, traffic), params,
                                             traffic, SEED, index, trials).served, params)
            expected.append((stats.mean_throughput_pps, stats.ci95_halfwidth_pps))
    assert [(row.mean_throughput_pps, row.ci95_halfwidth) for row in rows] == expected


def test_random_access_sweep_builds_no_occupancy_window(params, monkeypatch):
    # served alone is one binomial draw a block: no un.poisson_law, which
    # only a caller of the arrivals needs (once a point)
    means = []
    law = sim.un.poisson_law
    monkeypatch.setattr(sim.un, "poisson_law", lambda mean: means.append(mean) or law(mean))
    configs = [SchemeConfig("uncoordinated", scheme) for scheme in ("fdma", "tdma")]
    sim.sweep(configs, params, [1000.0, 20000.0], 3 * BLOCK_TRIALS, SEED)
    assert means == []
    traffic = TrafficModel(1000.0)
    simulate_point(resolve_design(configs[0], params, traffic), params, traffic, SEED, 0,
                   3 * BLOCK_TRIALS)
    assert len(means) == 1


def test_random_access_point_takes_its_transmit_probability_once(params, monkeypatch):
    config = SchemeConfig("uncoordinated", "tdma", design=UncoordinatedDesign("tdma", 0.5, 8))
    before = run_sweep(config, params, [100.0, 1000.0], 3 * BLOCK_TRIALS + 1, SEED)
    calls = []
    probability = sim.un.transmit_probability
    monkeypatch.setattr(sim.un, "transmit_probability",
                        lambda *args: calls.append(args) or probability(*args))
    assert run_sweep(config, params, [100.0, 1000.0], 3 * BLOCK_TRIALS + 1, SEED) == before
    assert len(calls) == 2   # one per point, not one per block


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig("managed", "fdma")
    with pytest.raises(ValueError):
        SchemeConfig("coordinated", "cdma")
    assert SchemeConfig("coordinated", "fdma").tag == "coordinated-fdma"
    # the row tag must name the scheme that is simulated
    with pytest.raises(ValueError, match="uncoordinated-tdma.*fdma"):
        SchemeConfig("uncoordinated", "tdma", design=UncoordinatedDesign("fdma", 0.5, 10))
    with pytest.raises(ValueError, match="coordinated-fdma"):
        SchemeConfig("coordinated", "fdma", design=UncoordinatedDesign("fdma", 0.5, 10))
    assert SchemeConfig("uncoordinated", "fdma",
                        design=UncoordinatedDesign("fdma", 0.5, 10)).design.partitions == 10


def test_noma_point_memory_does_not_follow_arrivals(params):
    # 10^7 arrivals per slot are counted, never placed
    traffic = TrafficModel(1e7)
    config = resolve_design(SchemeConfig("uncoordinated", "noma"), params, traffic)
    tracemalloc.start()
    try:
        counts = simulate_point(config, params, traffic, SEED, 0, 3 * BLOCK_TRIALS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (counts.served <= 1442.1950986512280 + 1.0).all()


@pytest.mark.parametrize("scheme", ["fdma", "tdma", "noma"])
def test_coordinated_memory_follows_the_admitted_prefix(params, scheme):
    # 10^8 arrivals in the slot, a few 10^4 admitted: the gains are drawn
    # strongest first and only as far as admission reads them
    tracemalloc.start()
    try:
        counts = simulate_point(SchemeConfig("coordinated", scheme), params,
                                TrafficModel(1e8), SEED, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert 1e4 < counts.served[0] < 1e5


def test_many_partitions_resolve_collisions_by_transmitter(params):
    # 10^5 partitions, 0.02 transmitters each: a slot draws how many
    # partitions hold each occupancy (a hundred or so counts), not a number
    # per partition or per transmitter
    fine = SystemParams(payload_bits=1e-3)
    design = UncoordinatedDesign("fdma", 1.0, 100_000)
    config = SchemeConfig("uncoordinated", "fdma", design=design)
    traffic = TrafficModel(2000.0)
    tracemalloc.start()
    try:
        counts = simulate_point(config, fine, traffic, SEED, 0, 640)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000
    assert (counts.served <= counts.arrivals).all()
    analytic = uncoordinated_throughput(design, fine, traffic).expected_success
    se = counts.served.std(ddof=1) / math.sqrt(counts.served.size)
    assert abs(counts.served.mean() - analytic) <= 4.0 * se


def _lone_by_device(partitions, mean, slots, rng):
    """Oracle: per slot, Poisson(partitions * mean) transmitters each pick a
    partition uniformly; the slot's transmitters and those alone in theirs."""
    transmitting = rng.poisson(partitions * mean, slots)
    return transmitting, np.array([np.count_nonzero(np.bincount(
        rng.integers(0, partitions, t), minlength=partitions) == 1) for t in transmitting])


def _covariance(x, y):
    """The sample covariance of x and y, and its standard error."""
    products = (x - x.mean()) * (y - y.mean())
    return products.mean(), products.std(ddof=1) / math.sqrt(products.size)


@pytest.mark.parametrize("partitions", [1, 2, 7, 1000])
def test_occupancy_law_matches_transmitters_picking_partitions(params, partitions):
    # every device affords up to 1,000 partitions at the defaults, so at full
    # access the arrivals are the transmitters: the engine's served-first draws
    # and explicit picks must agree on the transmitters, the lone count, its
    # first two atoms and how the two move together (at 1,000 partitions a
    # correlation of about +0.95 at 0.05 transmitters a partition, -0.42 at 4)
    rng = np.random.default_rng(SEED)
    config = SchemeConfig("uncoordinated", "fdma",
                          design=UncoordinatedDesign("fdma", 1.0, partitions))
    assert transmit_probability(config.design, params) == 1.0
    for mean in (0.05, 1.0, 4.0):
        counts = simulate_point(config, params, TrafficModel(partitions * mean), SEED, 0, 1024)
        transmitting, served = _lone_by_device(partitions, mean, 1024, rng)
        for ours, oracle in ((counts.arrivals, transmitting), (counts.served, served),
                             (counts.served == 0, served == 0), (counts.served == 1, served == 1)):
            se = math.sqrt((ours.var(ddof=1) + oracle.var(ddof=1)) / 1024)
            assert abs(ours.mean() - oracle.mean()) <= 5.0 * se, (partitions, mean)
        (ours, ours_se), (oracle, oracle_se) = (_covariance(counts.arrivals, counts.served),
                                                _covariance(transmitting, served))
        assert abs(ours - oracle) <= 5.0 * math.hypot(ours_se, oracle_se), (partitions, mean)


@pytest.mark.parametrize("scheme, design, lam", [
    ("fdma", None, 20_000.0), ("tdma", UncoordinatedDesign("tdma", 1.0, 1), 1e6)],
    ids=["default-fdma", "one-sub-slot"])
def test_random_access_block_memory_does_not_follow_the_load(params, scheme, design, lam):
    # 20,000 and 10^6 arrivals a slot: a block holds the count of partitions
    # at each occupancy (171 of them at one transmitter a partition) or, for
    # one sub-slot, its one occupancy; nothing per transmitter
    traffic = TrafficModel(lam)
    config = resolve_design(SchemeConfig("uncoordinated", scheme, design=design), params,
                            traffic)
    # a first call imports numpy.random (~0.9 MB traced): keep it out of the peak
    simulate_point(config, params, traffic, SEED, 0, 1)
    tracemalloc.start()
    try:
        counts = simulate_point(config, params, traffic, SEED, 0, 2 * BLOCK_TRIALS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150_000
    assert (counts.served <= np.minimum(counts.arrivals, config.design.partitions)).all()


def test_binomial_thinning_matches_placement_geometry():
    # The engine draws the count of active devices that afford the design as
    # Binomial(active, transmit_probability) instead of placing each one.
    # Placing 2e6 devices, the share whose gain clears the design's bar must
    # match that probability within 5 standard errors.
    params = SystemParams(payload_bits=5000.0, ref_snr=0.1, pathloss_exp=3.5)
    noma = noma_design(params, TrafficModel(1000.0))
    # the gain thresholds (2**(spectral_load * N) - 1) / (N ref_snr) (fdma), the
    # same without the N (tdma) and target_snr / ref_snr (noma)
    cases = [(UncoordinatedDesign("fdma", 1.0, 2000),
              (2.0 ** (params.spectral_load * 2000) - 1.0) / (2000 * params.ref_snr)),
             (UncoordinatedDesign("tdma", 1.0, 60),
              (2.0 ** (params.spectral_load * 60) - 1.0) / params.ref_snr),
             (noma, noma.target_snr / params.ref_snr)]
    gains = channel_gain(sample_placement(2_000_000, trial_rng(SEED, 7)), params.pathloss_exp)
    for design, bar in cases:
        p_tx = transmit_probability(design, params)
        assert 0.05 < p_tx < 0.95
        se = math.sqrt(p_tx * (1.0 - p_tx) / gains.size)
        assert abs(np.count_nonzero(gains >= bar) / gains.size - p_tx) <= 5.0 * se
