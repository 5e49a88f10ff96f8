"""Throughput models and Monte Carlo simulation for coordinated and
uncoordinated multiple access (TDMA / FDMA / NOMA) in cellular M2M uplinks."""

from .model import (COORDINATED, FDMA, NOMA, SCHEMES, TDMA, UNCOORDINATED,
                    DeviceSet, Infeasible, StrongestFirst, SystemParams, TrafficModel,
                    channel_gain, make_device_set, sample_arrivals,
                    sample_placement, trial_rng)
from .coordinated import (CoordinatedAllocation, fdma_admitted_count, fdma_kmax,
                          fdma_min_bandwidth, noma_admitted_count, noma_kmax,
                          noma_power_allocation, tdma_admitted_count, tdma_kmax,
                          tdma_min_time)
from .uncoordinated import (NOMINAL, REDERIVED, UncoordinatedAnalysis,
                            UncoordinatedDesign, collision_probability,
                            exact_mean_served, noma_design, noma_device_cap,
                            noma_feasibility_probability, noma_required_snr,
                            optimize_design, transmit_probability,
                            uncoordinated_throughput)
from .sim import (BLOCK_TRIALS, SchemeConfig, SweepRow, TrialCounts, TrialStats,
                  aggregate, analytic_rows, resolve_design, run_sweep, run_trial,
                  simulate_point, sweep)

__version__ = "0.1.0"
