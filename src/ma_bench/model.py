"""
System model shared by every multiple-access scheme.

Single cell, devices uniformly distributed over a disc around the base
station, distances normalized to the cell radius. Channel model is pure
path loss (no shadowing, no small-scale fading):

    gain = (r/R)^(-pathloss_exp)   >= 1 inside the cell

Traffic is Poisson with ``arrival_rate`` packets per second, observed over
one slot. All transmit powers are fractions of the device's maximum power,
so received SNR at the base station is

    snr = power_fraction * bandwidth_ratio * ref_snr * gain

with ``ref_snr`` the SNR of a cell-edge device at full power over the full
band, and ``bandwidth_ratio`` the total bandwidth over the occupied one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

FDMA = "fdma"
TDMA = "tdma"
NOMA = "noma"
SCHEMES = (FDMA, TDMA, NOMA)

COORDINATED = "coordinated"
UNCOORDINATED = "uncoordinated"
FAMILIES = (COORDINATED, UNCOORDINATED)


class Infeasible(ValueError):
    """No resource assignment can satisfy the request."""


@dataclass(frozen=True)
class SystemParams:
    """Radio-resource and physics constants for one resource block."""

    bandwidth_hz: float = 1e6        # W, total uplink bandwidth
    slot_s: float = 1.0              # slot duration
    payload_bits: float = 1000.0     # packet size L
    ref_snr: float = 1.0             # linear; cell-edge, full power, full band
    pathloss_exp: float = 4.0        # must be > 2 for finite gain moments
    min_slot_s: float = 1e-3         # smallest usable TDMA sub-slot
    min_subchannel_hz: float = 1e3   # smallest usable FDMA subchannel

    def __post_init__(self):
        for name in ("bandwidth_hz", "slot_s", "payload_bits", "ref_snr",
                     "pathloss_exp", "min_slot_s", "min_subchannel_hz"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.min_slot_s > self.slot_s:
            raise ValueError("min_slot_s exceeds slot_s")
        if self.min_subchannel_hz > self.bandwidth_hz:
            raise ValueError("min_subchannel_hz exceeds bandwidth_hz")
        if self.pathloss_exp <= 2:
            raise ValueError("pathloss_exp must be > 2 (finite gain moments)")
        if not self.bandwidth_hz * self.slot_s > 0 or self.spectral_load >= 1024:
            raise ValueError("payload_bits / (bandwidth_hz * slot_s) must be < 1024, "
                             "or the SNR floor 2**(that ratio) - 1 is not finite")
        if not self.snr_floor > 0:
            raise ValueError("payload_bits / (bandwidth_hz * slot_s) is too small: "
                             "the SNR floor 2**(that ratio) - 1 rounds to 0")

    @property
    def spectral_load(self) -> float:
        """Bits per second per Hz a packet needs from one full resource block."""
        return self.payload_bits / (self.bandwidth_hz * self.slot_s)

    @property
    def snr_floor(self) -> float:
        """Received SNR at which one device alone exactly delivers its packet
        over the full band in one slot: 2**spectral_load - 1."""
        return 2.0 ** self.spectral_load - 1.0

    def digest(self) -> str:
        """Short stable fingerprint of the parameter set, echoed in outputs."""
        canon = ",".join(
            repr(getattr(self, name))
            for name in ("bandwidth_hz", "slot_s", "payload_bits", "ref_snr",
                         "pathloss_exp", "min_slot_s", "min_subchannel_hz"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class TrafficModel:
    """Poisson uplink load."""

    arrival_rate: float   # packets per second

    def __post_init__(self):
        if not (self.arrival_rate >= 0 and np.isfinite(self.arrival_rate)):
            raise ValueError(f"arrival_rate must be finite and >= 0, got {self.arrival_rate!r}")


@dataclass(frozen=True, eq=False)
class DeviceSet:
    """A realized contending population as channel gains, strongest first."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", g)
        if g.ndim != 1:
            raise ValueError("gains must be a 1-D array")
        if g.size and (np.any(np.diff(g) > 0) or g[-1] < 1.0):
            raise ValueError("gains must be sorted descending with every entry >= 1")

    def __len__(self) -> int:
        return int(self.gains.size)

    def top(self, count: int) -> "DeviceSet":
        """The ``count`` strongest devices."""
        return DeviceSet(self.gains[:count])


def channel_gain(normalized_distance, pathloss_exp: float):
    """Path-loss gain u**(-pathloss_exp) of a device at distance u = r/R.

    Accepts scalars or arrays; u must lie in (0, 1] (inside the cell).
    """
    u = np.asarray(normalized_distance, dtype=float)
    if pathloss_exp <= 0:
        raise ValueError("pathloss_exp must be > 0")
    if np.any(u <= 0) or np.any(u > 1):
        raise ValueError("normalized distance must lie in (0, 1]")
    out = u ** (-pathloss_exp)
    return out if out.ndim else float(out)


def placement_from_uniform(v):
    """Inverse-CDF map from uniform v in (0, 1] to a normalized distance.

    Uniform placement over the disc puts density 2u on the normalized
    distance, i.e. CDF u**2, so u = sqrt(v).
    """
    return np.sqrt(v)


def sample_placement(count: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized distances of ``count`` devices dropped uniformly in the cell."""
    if count < 0:
        raise ValueError("count must be >= 0")
    # 1 - random() lies in (0, 1]: keeps distances strictly positive.
    return placement_from_uniform(1.0 - rng.random(count))


def sample_arrivals(traffic: TrafficModel, slot_s: float, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """Devices with a packet in each of ``size`` independent slots: an int64
    array of Poisson(arrival_rate * slot_s) draws."""
    return rng.poisson(traffic.arrival_rate * slot_s, size=size)


def received_snr(normalized_power: float, bandwidth_ratio: float,
                 ref_snr: float, gain: float) -> float:
    """Received SNR for a device at ``gain`` spending a fraction of its max
    power over 1/bandwidth_ratio of the band.

    bandwidth_ratio is total bandwidth over occupied bandwidth, >= 1.
    """
    if not 0.0 <= normalized_power <= 1.0:
        raise ValueError("normalized_power must lie in [0, 1]")
    if bandwidth_ratio < 1.0:
        raise ValueError("occupied bandwidth exceeds the total band")
    return normalized_power * bandwidth_ratio * ref_snr * gain


def make_device_set(count: int, params: SystemParams, rng: np.random.Generator) -> DeviceSet:
    """Sample ``count`` placements and return their gains sorted descending."""
    u = sample_placement(count, rng)
    g = channel_gain(u, params.pathloss_exp) if count else np.empty(0)
    return DeviceSet(np.sort(np.asarray(g))[::-1])


def trial_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent, reproducible generator for one substream.

    Substreams are keyed on (master_seed, *indices), e.g. (master_seed,
    point, block) in the Monte Carlo engine, so they can run in any order or
    concurrently and still draw identical values. SeedSequence pads short
    keys with zeros: trailing zero indices leave the stream unchanged.
    """
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((master_seed, *indices))))
