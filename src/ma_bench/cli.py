"""
Command-line front end.

Subcommands:
    coordinated     single-arrival-rate Monte Carlo summary (full-CSI schemes)
    uncoordinated   single-arrival-rate design point, analysis and optional MC
    sweep           throughput-versus-arrival-rate CSV over a rate grid
    cap             closed-form quantities (capacity bound, SNR target,
                    optimizer output) in key=value form for scripting

Configuration is flat ``key=value`` lines with ``#`` comment lines;
precedence is command-line flags > config file > MA_BENCH_SEED (seed only)
> built-in defaults. Diagnostics go to stderr, data to stdout or the
output path.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .model import (COORDINATED, FAMILIES, FDMA, SCHEMES, TDMA, UNCOORDINATED,
                    SystemParams, TrafficModel)
from . import sim
from . import uncoordinated as un

SCHEME_TOKENS = tuple(f"{family}-{scheme}" for family in FAMILIES for scheme in SCHEMES)
MODES = ("analytic", "montecarlo", "both")
SEED_ENV_VAR = "MA_BENCH_SEED"
DEFAULT_SEED = 42

CSV_HEADER = "scheme,lambda,trials,mean_throughput_pps,ci95_halfwidth,seed,params_digest"
_ROW_VALUES = attrgetter(*(f.name for f in fields(sim.SweepRow)))   # CSV column order


class ConfigError(ValueError):
    """Bad configuration; the message names the offending key or line."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_schemes(text) -> list[str]:
    if isinstance(text, str):
        tokens = [t.strip() for t in text.split(",") if t.strip()]
    else:
        tokens = list(text)
    for token in tokens:
        if token not in SCHEME_TOKENS:
            raise ValueError(f"unknown scheme {token!r}; choose from "
                             + ", ".join(SCHEME_TOKENS))
    if not tokens:
        raise ValueError("schemes must name at least one scheme")
    return tokens


@dataclass
class RunConfig:
    """Everything one invocation needs, fully validated.

    Its fields other than ``params``, and the fields of SystemParams, are the
    config keys: each is a file key, a ``--key-with-dashes`` flag (``--output``
    for output_path) and is parsed by its type.
    """

    params: SystemParams = field(default_factory=SystemParams)
    schemes: list[str] = field(default_factory=lambda: list(SCHEME_TOKENS))
    mode: str = "both"
    lambda_min: float = 1000.0
    lambda_max: float = 20000.0
    lambda_steps: int = 8
    trials: int = 10_000
    master_seed: int = DEFAULT_SEED
    output_path: str = "sweep.csv"
    noma_snr_rule: str = un.NOMINAL
    enforce_minimum: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if self.noma_snr_rule not in un.SNR_RULES:
            raise ValueError("noma_snr_rule must be one of " + ", ".join(un.SNR_RULES))
        if not (math.isfinite(self.lambda_min) and math.isfinite(self.lambda_max)):
            raise ValueError(f"lambda_min and lambda_max must be finite, got "
                             f"{self.lambda_min!r} and {self.lambda_max!r}")
        if self.lambda_min < 0:
            raise ValueError("lambda_min must be >= 0")
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda_min exceeds lambda_max")
        if self.lambda_steps < 1:
            raise ValueError("lambda_steps must be >= 1")
        if self.lambda_steps > 1 and self.lambda_min == self.lambda_max:
            raise ValueError("lambda_steps > 1 needs lambda_min < lambda_max")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.master_seed < 1 << 32:
            raise ValueError("master_seed must lie in [0, 2**32)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.schemes = _parse_schemes(self.schemes)

    def lambda_grid(self) -> list[float]:
        if self.lambda_steps == 1:
            return [self.lambda_min]
        return np.linspace(self.lambda_min, self.lambda_max, self.lambda_steps).tolist()


# Keyed on the annotation text: both modules postpone annotation evaluation.
_PARSE_BY_TYPE = {"float": float, "int": int, "str": str, "bool": _parse_bool,
                  "list[str]": _parse_schemes}
_KEY_PARSERS = {f.name: _PARSE_BY_TYPE[f.type]
                for f in (*fields(SystemParams), *fields(RunConfig)) if f.name != "params"}


def _flag_value(key: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}")


def parse_config(file_text: str, flag_overrides: dict | None = None,
                 env: dict | None = None) -> RunConfig:
    """Build a RunConfig from file text, flag overrides and the environment.

    Precedence: flags > file > MA_BENCH_SEED (master_seed only) > defaults.
    Unknown keys and malformed lines are rejected with the line named.
    """
    env = os.environ if env is None else env
    values: dict = {}

    if SEED_ENV_VAR in env:
        try:
            values["master_seed"] = int(env[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, "
                              f"got {env[SEED_ENV_VAR]!r}")

    for lineno, raw in enumerate(file_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")

    for key, value in (flag_overrides or {}).items():
        if value is None:
            continue
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = _flag_value(key, _KEY_PARSERS[key], value) \
            if isinstance(value, str) else value

    params = {f.name: values.pop(f.name) for f in fields(SystemParams) if f.name in values}
    try:
        return RunConfig(params=SystemParams(**params), **values)
    except ValueError as exc:
        raise ConfigError(str(exc))


def emit_csv(rows: list[sim.SweepRow], path: str) -> None:
    """Write sweep rows as CSV, one column per SweepRow field in field order;
    byte-identical output for identical rows."""
    if not rows:
        raise ValueError("no rows to write")
    lines = [CSV_HEADER]
    lines.extend(",".join(map(str, _ROW_VALUES(row))) for row in rows)   # floats round-trip
    payload = "\n".join(lines) + "\n"
    try:
        with open(path, "w", newline="") as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _scheme_configs(config: RunConfig, family: str | None = None) -> list[sim.SchemeConfig]:
    selected = [sim.SchemeConfig(*token.split("-"), enforce_minimum=config.enforce_minimum,
                                 noma_rule=config.noma_snr_rule)
                for token in config.schemes if family in (None, token.split("-")[0])]
    if not selected:
        raise ConfigError(f"no {family} schemes configured (schemes="
                          + ",".join(config.schemes) + ")")
    return selected


def _cmd_sweep(config: RunConfig) -> int:
    rows = sim.sweep(_scheme_configs(config), config.params, config.lambda_grid(),
                     config.trials, config.master_seed, config.workers, config.mode)
    emit_csv(rows, config.output_path)
    print(f"wrote {len(rows)} rows to {config.output_path}", file=sys.stderr)
    return 0


def _cmd_coordinated(config: RunConfig, arrival_rate: float) -> int:
    lines = [f"arrival_rate={arrival_rate:g} packets/s  trials={config.trials}  "
             f"seed={config.master_seed}  enforce_minimum={config.enforce_minimum}",
             f"{'scheme':<20} {'mean_served':>12} {'throughput_pps':>15} {'ci95':>10}"]
    # each scheme's one-rate sweep row
    for row in sim.sweep(_scheme_configs(config, COORDINATED), config.params, [arrival_rate],
                         config.trials, config.master_seed, config.workers, config.mode):
        served = row.mean_throughput_pps * config.params.slot_s
        lines.append(f"{row.scheme:<20} {served:>12.3f} "
                     f"{row.mean_throughput_pps:>15.3f} {row.ci95_halfwidth:>10.3f}")
    print("\n".join(lines))   # only once all succeeded: no partial table
    return 0


def _cmd_uncoordinated(config: RunConfig, arrival_rate: float) -> int:
    traffic = TrafficModel(arrival_rate)
    with_mc = config.mode in ("montecarlo", "both")
    header = (f"{'scheme':<20} {'access_p':>9} {'parts':>6} {'target_snr':>12} "
              f"{'E[active]':>10} {'E[tx]':>10} {'P_coll':>8} {'analytic_pps':>13}")
    if with_mc:
        header += f" {'mc_pps':>10} {'mc_ci95':>9}"
    lines = [f"arrival_rate={arrival_rate:g} packets/s  trials={config.trials}  "
             f"seed={config.master_seed}", header]
    concretes = [sim.resolve_design(scheme_config, config.params, traffic)
                 for scheme_config in _scheme_configs(config, UNCOORDINATED)]
    for concrete in concretes:
        design = concrete.design
        analysis = un.uncoordinated_throughput(design, config.params, traffic)
        target = f"{design.target_snr:.6g}" if design.target_snr else "-"
        lines.append(f"{concrete.tag:<20} {design.access_prob:>9.4f} "
                     f"{design.partitions:>6d} {target:>12} "
                     f"{analysis.expected_active:>10.2f} "
                     f"{analysis.expected_transmitting:>10.2f} "
                     f"{analysis.collision_prob:>8.4f} "
                     f"{analysis.expected_success / config.params.slot_s:>13.3f}")
    if with_mc:   # each scheme's one-rate sweep row, at the design resolved above
        rows = sim.sweep(concretes, config.params, [arrival_rate], config.trials,
                         config.master_seed, config.workers, "montecarlo")
        lines[2:] = [f"{line} {row.mean_throughput_pps:>10.3f} {row.ci95_halfwidth:>9.3f}"
                     for line, row in zip(lines[2:], rows)]
    print("\n".join(lines))
    return 0


def _cmd_cap(config: RunConfig, arrival_rate: float) -> int:
    params = config.params
    traffic = TrafficModel(arrival_rate)
    design = un.noma_design(params, traffic, config.noma_snr_rule)
    lines = [f"noma_device_cap={un.noma_device_cap(params)}",
             f"noma_target_snr={design.target_snr}"]
    for scheme in (FDMA, TDMA):
        best = un.optimize_design(scheme, params, traffic)
        analysis = un.uncoordinated_throughput(best, params, traffic)
        lines += [f"{scheme}_access_prob={best.access_prob}",
                  f"{scheme}_partitions={best.partitions}",
                  f"{scheme}_expected_success_pps={analysis.expected_success / params.slot_s}"]
    print("\n".join(lines))
    return 0


def _load_config(args: argparse.Namespace) -> RunConfig:
    file_text = ""
    if args.config:
        try:
            with open(args.config) as handle:
                file_text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
    return parse_config(file_text, {key: getattr(args, key) for key in _KEY_PARSERS})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process on first use."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    for key, parse in _KEY_PARSERS.items():
        flag = "--output" if key == "output_path" else "--" + key.replace("_", "-")
        # untyped: parsed with the file values, so a bad one is an error: line
        common.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction
                            if parse is _parse_bool else "store")
    parser = argparse.ArgumentParser(
        prog="ma-bench",
        description="Throughput models for coordinated and uncoordinated "
                    "multiple access in M2M uplinks")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("coordinated", "single-rate Monte Carlo summary of full-CSI schemes"),
            ("uncoordinated", "single-rate design point and analysis"),
            ("sweep", "throughput-versus-arrival-rate CSV"),
            ("cap", "closed-form quantities for scripting")):
        sub = subparsers.add_parser(name, help=help_text, parents=[common])
        if name != "sweep":
            sub.add_argument("--arrival-rate", help="packets per second (default: lambda_min)")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = _load_config(args)
        if args.command == "sweep":
            return _cmd_sweep(config)
        rate = config.lambda_min if args.arrival_rate is None else _flag_value(
            "arrival_rate", _PARSE_BY_TYPE["float"], args.arrival_rate)
        return {"coordinated": _cmd_coordinated, "uncoordinated": _cmd_uncoordinated,
                "cap": _cmd_cap}[args.command](config, rate)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
