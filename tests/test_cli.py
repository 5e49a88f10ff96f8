import argparse
import dataclasses
import hashlib
import math
import os
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from ma_bench import SystemParams, cli, sim
from ma_bench.cli import (ConfigError, RunConfig, emit_csv, main,
                          parse_config, CSV_HEADER)
from ma_bench.sim import SweepRow

# Every config key: the fields of SystemParams and of RunConfig but params.
KEY_FIELDS = [f for f in (*dataclasses.fields(SystemParams), *dataclasses.fields(RunConfig))
              if f.name != "params"]
NON_BOOL_KEYS = [f.name for f in KEY_FIELDS if f.type != "bool"]


def run(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# --- configuration ------------------------------------------------------------

def test_defaults_match_reference_setup():
    config = parse_config("", env={})
    assert config.params.bandwidth_hz == 1e6
    assert config.params.slot_s == 1.0
    assert config.params.payload_bits == 1000.0
    assert config.params.min_slot_s == 1e-3
    assert config.params.min_subchannel_hz == 1e3
    assert config.params.ref_snr == 1.0
    assert config.params.pathloss_exp == 4.0
    assert config.mode == "both"
    assert config.trials == 10_000


def test_file_values_and_comments():
    text = "# comment\n\nbandwidth_hz = 2e6\ntrials=500\nschemes=uncoordinated-fdma\n"
    config = parse_config(text, env={})
    assert config.params.bandwidth_hz == 2e6
    assert config.trials == 500
    assert config.schemes == ["uncoordinated-fdma"]


def test_flag_overrides_file():
    config = parse_config("trials=100\n", {"trials": 500}, env={})
    assert config.trials == 500


def test_env_seed_is_lowest_precedence():
    assert parse_config("", env={"MA_BENCH_SEED": "7"}).master_seed == 7
    assert parse_config("master_seed=9\n", env={"MA_BENCH_SEED": "7"}).master_seed == 9
    assert parse_config("master_seed=9\n", {"master_seed": 11},
                        env={"MA_BENCH_SEED": "7"}).master_seed == 11
    with pytest.raises(ConfigError, match="MA_BENCH_SEED"):
        parse_config("", env={"MA_BENCH_SEED": "not-a-seed"})


def test_readme_example_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("# example.cfg\n", 1)[1].split("```", 1)[0]
    config = parse_config(example, env={})
    assert config.schemes == ["uncoordinated-fdma", "uncoordinated-noma"]
    assert config.enforce_minimum is False and config.noma_snr_rule == "nominal"


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="line 2.*bandwidth_mhz"):
        parse_config("trials=10\nbandwidth_mhz=1\n", env={})


def test_malformed_line_is_named():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words\n", env={})


def flag(key):
    return "--output" if key == "output_path" else "--" + key.replace("_", "-")


def key_value(config, key):
    return getattr(config.params if hasattr(config.params, key) else config, key)


def changed(value):
    """Another valid value of a config key's type: numbers doubled or
    incremented, booleans negated, scheme lists cut to the first scheme;
    strings (choices and paths) keep their default."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return 2.0 * value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value[:1]
    return value


def as_text(value):
    if isinstance(value, list):
        return ",".join(value)
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("key", [f.name for f in KEY_FIELDS])
def test_every_key_is_a_file_key_and_a_flag(key, monkeypatch, capsys):
    monkeypatch.delenv("MA_BENCH_SEED", raising=False)
    value = changed(key_value(RunConfig(), key))
    from_file = parse_config(f"{key}={as_text(value)}\n", env={})
    assert key_value(from_file, key) == value

    seen = []

    def spy(*args):
        seen.append(parse_config(*args))
        return seen[-1]

    monkeypatch.setattr(cli, "parse_config", spy)
    if isinstance(value, bool):
        argv = [flag(key) if value else "--no-" + flag(key)[2:]]
    else:
        argv = [flag(key), as_text(value)]
    status, _, err = run(["cap"] + argv, capsys)
    assert status == 0, err
    assert seen == [from_file]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key", NON_BOOL_KEYS)
def test_bad_value_for_every_key_is_one_error_line(key, source, tmp_path, capsys):
    # a path into no directory: not a number, a choice, a scheme list or a
    # writable output
    bad = str(tmp_path / "no" / "such" / "dir.csv")
    out_path = tmp_path / "rows.csv"
    settings = {"mode": "analytic", "schemes": "uncoordinated-fdma",
                "lambda_steps": "1", "output_path": str(out_path), key: bad}
    if source == "flag":
        argv = [arg for k, v in settings.items() for arg in (flag(k), v)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        argv = ["--config", str(cfg)]
    status, _, err = run(["sweep"] + argv, capsys)
    assert status == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert not out_path.exists()


@pytest.mark.parametrize("value", ["abc", "nan", "-1"])
@pytest.mark.parametrize("command", ["coordinated", "uncoordinated", "cap"])
def test_bad_arrival_rate_is_one_error_line(command, value, capsys):
    # --arrival-rate is no config key, but is parsed like one
    status, out, err = run([command, "--arrival-rate", value], capsys)
    assert status == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("argv", [
    ["cap", "--slot-s", "10", "--arrival-rate", "1e308"],         # noma_design fails
    ["uncoordinated", "--arrival-rate", "1e300", "--trials", "3"],  # Poisson draw fails
    ["coordinated", "--arrival-rate", "1e19", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_failing_single_rate_command_prints_nothing_on_stdout(argv, capsys):
    status, out, err = run(argv, capsys)
    assert status == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_negative_arrival_rate_reports_the_traffic_model_domain(capsys):
    status, out, err = run(["cap", "--arrival-rate", "-1"], capsys)
    assert (status, out) == (1, "")
    assert err == "error: arrival_rate must be finite and >= 0, got -1.0\n"


def test_run_config_validates_when_built_directly():
    for bad in (dict(mode="quick"), dict(noma_snr_rule="bogus"), dict(lambda_min=-1.0),
                dict(lambda_min=30000.0), dict(lambda_steps=0),
                dict(lambda_min=500.0, lambda_max=500.0, lambda_steps=2),
                dict(trials=0), dict(master_seed=-1), dict(master_seed=2 ** 32),
                dict(workers=0), dict(schemes=["fdma"]), dict(schemes=[])):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    assert RunConfig(schemes="uncoordinated-noma").schemes == ["uncoordinated-noma"]
    assert RunConfig(lambda_min=500.0, lambda_max=500.0, lambda_steps=1).lambda_grid() == [500.0]
    assert RunConfig(master_seed=2 ** 32 - 1).master_seed == 2 ** 32 - 1


def test_invariants_revalidated():
    with pytest.raises(ConfigError):
        parse_config("payload_bits=0\n", env={})
    with pytest.raises(ConfigError):
        parse_config("lambda_min=100\nlambda_max=10\n", env={})
    with pytest.raises(ConfigError):
        parse_config("mode=quick\n", env={})
    with pytest.raises(ConfigError):
        parse_config("schemes=fdma\n", env={})
    with pytest.raises(ConfigError):
        parse_config("master_seed=-3\n", env={})


# --- CSV contract ---------------------------------------------------------------

def row(**kw):
    base = dict(scheme="uncoordinated-fdma", lam=100.0, trials=10,
                mean_throughput_pps=90.56978449586677,
                ci95_halfwidth=1.2345678901234567,
                seed=42, params_digest="abc123def456")
    base.update(kw)
    return SweepRow(**base)


def test_emit_csv_header_and_shape(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([row()], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert path.read_text().endswith("\n")


def test_emit_csv_round_trips_floats(tmp_path):
    path = tmp_path / "out.csv"
    r = row()
    emit_csv([r], str(path))
    fields = path.read_text().splitlines()[1].split(",")
    assert float(fields[1]) == r.lam
    assert int(fields[2]) == r.trials
    assert float(fields[3]) == r.mean_throughput_pps
    assert float(fields[4]) == r.ci95_halfwidth
    assert int(fields[5]) == r.seed
    assert fields[6] == r.params_digest


def test_emit_csv_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv([row(), row(lam=200.0)], str(a))
    emit_csv([row(), row(lam=200.0)], str(b))
    assert a.read_bytes() == b.read_bytes()


def test_emit_csv_unwritable_path(tmp_path):
    with pytest.raises(OSError, match="no/such"):
        emit_csv([row()], str(tmp_path / "no" / "such" / "dir.csv"))


# --- entry point -----------------------------------------------------------------

def test_unknown_subcommand_fails_with_usage(capsys):
    status, _, err = run(["frobnicate"], capsys)
    assert status != 0
    assert "usage" in err.lower()


def test_missing_subcommand_fails(capsys):
    status, _, _ = run([], capsys)
    assert status != 0


COMMAND_HELP = (("coordinated", "single-rate Monte Carlo summary of full-CSI schemes"),
                ("uncoordinated", "single-rate design point and analysis"),
                ("sweep", "throughput-versus-arrival-rate CSV"),
                ("cap", "closed-form quantities for scripting"))


def reference_parser():
    """The parser main once built: every subcommand takes every flag from
    one shared parent, whichever command runs."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    for field_ in KEY_FIELDS:
        if field_.type == "bool":
            common.add_argument(flag(field_.name), dest=field_.name,
                                action=argparse.BooleanOptionalAction)
        else:
            common.add_argument(flag(field_.name), dest=field_.name)
    parser = argparse.ArgumentParser(
        prog="ma-bench",
        description="Throughput models for coordinated and uncoordinated "
                    "multiple access in M2M uplinks")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMAND_HELP:
        sub = subparsers.add_parser(name, help=help_text, parents=[common])
        if name != "sweep":
            sub.add_argument("--arrival-rate", default=None,
                             help="packets per second (default: lambda_min)")
    return parser


REFERENCE_ARGV = [
    [], ["-h"], *([command, "-h"] for command, _ in COMMAND_HELP),
    ["frobnicate"], ["--", "cap"], ["--trials", "5", "sweep"],
    ["cap", "--bandwidth-mhz", "1"], ["cap", "--trials"],
    ["coordinated", "--enforce-min", "--trials", "20"],
    ["cap", "--no-enforce-minimum"], ["sweep", "--arrival-rate", "1000"],
    ["cap", "--arrival-rate", "1000"],
]


@pytest.mark.parametrize("argv", REFERENCE_ARGV, ids=" ".join)
def test_main_matches_the_shared_parent_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("MA_BENCH_SEED", raising=False)
    parse_args = argparse.ArgumentParser.parse_args
    reference = reference_parser()
    # main as it runs with the reference parser's result in place of its own
    with mock.patch.object(argparse.ArgumentParser, "parse_args",
                           lambda self, args=None, namespace=None: parse_args(reference, args)):
        expected = run(argv, capsys)
    assert run(argv, capsys) == expected


def test_cached_parser_carries_nothing_between_calls(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("MA_BENCH_SEED", raising=False)
    forward = [run(argv, capsys) for argv in REFERENCE_ARGV]
    backward = [run(argv, capsys) for argv in reversed(REFERENCE_ARGV)]
    assert backward[::-1] == forward


def test_second_main_call_builds_no_parser(monkeypatch, capsys):
    assert run(["cap", "--arrival-rate", "1000"], capsys)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["cap", "--arrival-rate", "1000"], ["uncoordinated", "--mode", "analytic"],
                 ["sweep", "--arrival-rate", "1000"]):
        run(argv, capsys)
    assert built == []


def test_parser_declares_the_config_flags_once(monkeypatch):
    # one shared parent: --config and the config flags once, --arrival-rate
    # on three commands, -h on the parser and its four commands
    declared = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        declared.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    cli._parser.cache_clear()
    try:
        cli._parser()
    finally:
        cli._parser.cache_clear()
    assert len(declared) <= len(cli._KEY_PARSERS) + 9


def test_importing_the_cli_builds_no_parser(fresh_modules):
    # building the tree loads locale (argparse's gettext); import does neither
    assert fresh_modules("import ma_bench.cli", ("locale",)) == []


@pytest.mark.parametrize("argv, status", [
    (["cap", "--arrival-rate", "1000"], 0), (["cap", "--arrival-rate", "abc"], 1),
    ([], 2)], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_main_reads_sys_argv_and_entry_exits_with_its_status(argv, status, monkeypatch,
                                                             capsys):
    monkeypatch.setattr(sys, "argv", ["ma-bench"] + argv)
    expected = run(argv, capsys)
    assert expected[0] == status
    assert run(None, capsys) == expected
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert (exited.value.code, *capsys.readouterr()) == expected


def test_cap_prints_capacity_bound(capsys):
    status, out, _ = run(["cap", "--arrival-rate", "1000"], capsys)
    assert status == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert abs(float(values["noma_device_cap"]) - 1442.20) <= 0.01
    assert abs(float(values["noma_target_snr"]) - 0.0022614452377472614) < 1e-9
    assert values["fdma_partitions"] == "1000"


def test_cap_at_two_bits_per_hertz_prints_finite_result(capsys):
    # 2**(spectral_load * partitions) overflows a float from 512 partitions on
    status, out, err = run(["cap", "--payload-bits", "2e6"], capsys)
    assert status == 0 and err == ""
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert all(math.isfinite(float(value)) for value in values.values())
    assert 1 <= int(values["fdma_partitions"]) <= 1000


def test_analytic_sweep_at_two_bits_per_hertz_is_finite(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    status, _, _ = run(["sweep", "--payload-bits", "2e6",
                        "--schemes", "uncoordinated-fdma", "--mode", "analytic",
                        "--lambda-min", "1000", "--lambda-max", "20000",
                        "--lambda-steps", "3", "--output", str(out_path)], capsys)
    assert status == 0
    rows = out_path.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(math.isfinite(float(row.split(",")[3])) for row in rows)


def test_cap_with_infinite_snr_floor_is_one_error_line(capsys):
    # spectral load 2000: 2**2000 - 1 is beyond the float range
    status, out, err = run(["cap", "--payload-bits", "2e9"], capsys)
    assert status == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


def test_cap_with_zero_snr_floor_is_one_error_line(capsys):
    # spectral load 1e-26: 2**1e-26 - 1 rounds to 0
    status, out, err = run(["cap", "--payload-bits", "1e-20"], capsys)
    assert status == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "SNR floor" in lines[0]


def test_sweep_writes_csv_and_reports(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    status, _, err = run(["sweep", "--schemes", "uncoordinated-fdma",
                          "--lambda-min", "100", "--lambda-max", "200",
                          "--lambda-steps", "2", "--trials", "20",
                          "--output", str(out_path)], capsys)
    assert status == 0
    assert out_path.exists()
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4      # analytic + monte carlo rows, 2 rates each
    digest = parse_config("", env={}).params.digest()
    assert all(line.endswith(digest) for line in lines[1:])


@pytest.mark.parametrize("mode", ["analytic", "montecarlo", "both"])
def test_sweep_rejects_a_grid_of_one_repeated_rate(mode, tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    status, _, err = run(["sweep", "--schemes", "uncoordinated-fdma", "--mode", mode,
                          "--lambda-min", "100", "--lambda-max", "100",
                          "--lambda-steps", "3", "--trials", "5",
                          "--output", str(out_path)], capsys)
    assert status == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "lambda" in lines[0]
    assert not out_path.exists()


@pytest.mark.parametrize("source", ["flag", "file", "env"])
def test_master_seed_must_fit_in_32_bits(source, tmp_path, monkeypatch, capsys):
    # SeedSequence would split 2**32 into words and alias the streams of seed 0
    monkeypatch.delenv("MA_BENCH_SEED", raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("master_seed=4294967296\n" if source == "file" else "")
    if source == "env":
        monkeypatch.setenv("MA_BENCH_SEED", "4294967296")
    argv = ["cap", "--config", str(cfg)]
    if source == "flag":
        argv += ["--master-seed", "4294967296"]
    status, out, err = run(argv, capsys)
    assert status == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "master_seed" in lines[0]
    assert run(["cap", "--master-seed", str(2 ** 32 - 1)], capsys)[0] == 0


def test_sweep_analytic_mode_rejects_coordinated(tmp_path, capsys):
    status, _, err = run(["sweep", "--schemes", "coordinated-fdma",
                          "--mode", "analytic",
                          "--output", str(tmp_path / "x.csv")], capsys)
    assert status == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "closed form" in lines[0] and "coordinated-fdma" in lines[0]


def test_sweep_bad_config_exits_nonzero(tmp_path, capsys):
    status, _, err = run(["sweep", "--payload-bits", "0",
                          "--output", str(tmp_path / "x.csv")], capsys)
    assert status != 0
    assert "payload_bits" in err
    assert not (tmp_path / "x.csv").exists()


def test_config_file_feeds_subcommands(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=15\nschemes=uncoordinated-tdma\nmaster_seed=5\n")
    out_path = tmp_path / "rows.csv"
    status, _, _ = run(["sweep", "--config", str(cfg), "--lambda-min", "50",
                        "--lambda-steps", "1", "--mode", "montecarlo",
                        "--output", str(out_path)], capsys)
    assert status == 0
    line = out_path.read_text().splitlines()[1]
    fields = line.split(",")
    assert fields[0] == "uncoordinated-tdma"
    assert fields[2] == "15"
    assert fields[5] == "5"


def test_sweep_with_minima_reports_tdma_plateau(tmp_path, capsys):
    # every device affords a 1 ms padded share at 0 dB reference SNR, so the
    # coordinated plateau is exactly 1000 packets/s once arrivals saturate
    out_path = tmp_path / "plateau.csv"
    status, _, _ = run(["sweep", "--schemes", "coordinated-tdma,coordinated-fdma",
                        "--enforce-minimum", "--mode", "montecarlo",
                        "--lambda-min", "5000", "--lambda-steps", "1",
                        "--trials", "30", "--output", str(out_path)], capsys)
    assert status == 0
    for line in out_path.read_text().splitlines()[1:]:
        assert float(line.split(",")[3]) == 1000.0


def test_uncoordinated_summary_table(capsys):
    status, out, _ = run(["uncoordinated", "--arrival-rate", "500",
                          "--trials", "50", "--mode", "both"], capsys)
    assert status == 0
    assert "uncoordinated-noma" in out
    assert "mc_pps" in out


def test_uncoordinated_noma_at_fifty_million_arrivals_delivers(capsys):
    status, out, err = run(["uncoordinated", "--arrival-rate", "5e7", "--trials", "200",
                            "--schemes", "uncoordinated-noma"], capsys)
    assert status == 0, err
    row = next(line.split() for line in out.splitlines()
               if line.startswith("uncoordinated-noma"))
    analytic, monte_carlo = float(row[7]), float(row[8])
    assert abs(analytic - 1442.195) < 0.01
    assert monte_carlo > 500.0   # about half the slots carry more than the cap


def test_rederived_noma_sweep_delivers_at_saturated_rates(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    status, _, err = run(["sweep", "--schemes", "uncoordinated-noma",
                          "--noma-snr-rule", "rederived", "--trials", "640",
                          "--output", str(out_path)], capsys)
    assert status == 0, err
    rows = [row.split(",") for row in out_path.read_text().splitlines()[1:]]
    analytic = [float(row[3]) for row in rows if row[0].endswith("-analytic")]
    monte_carlo = [float(row[3]) for row in rows if not row[0].endswith("-analytic")]
    assert len(analytic) == len(monte_carlo) == 8
    assert analytic[0] == 1000.0
    assert all(abs(value - 1443.19) < 0.2 for value in analytic[1:])
    assert monte_carlo[0] > 0.0 and all(value > 500.0 for value in monte_carlo[1:])


@pytest.mark.parametrize("argv", [
    ["uncoordinated", "--ref-snr", "1e300", "--arrival-rate", "1e9", "--trials", "10"],
    ["cap", "--ref-snr", "1e300", "--arrival-rate", "1e9"],
    ["cap", "--slot-s", "10", "--arrival-rate", "1e308"],
    ["sweep", "--schemes", "uncoordinated-noma", "--ref-snr", "1e300",
     "--lambda-min", "1e3", "--lambda-max", "1e9", "--lambda-steps", "2"],
    # also past the Poisson limit: every design resolves before any load is checked
    ["sweep", "--mode", "both", "--schemes", "uncoordinated-noma,uncoordinated-tdma",
     "--slot-s", "10", "--lambda-max", "1e308", "--trials", "3"],
])
def test_noma_target_beyond_the_float_range_is_one_error_line(argv, tmp_path, capsys):
    if argv[0] == "sweep":
        argv = argv + ["--output", str(tmp_path / "rows.csv")]
    status, _, err = run(argv, capsys)
    assert status == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "float range" in lines[0]
    assert "Traceback" not in err


def test_coordinated_summary_table(capsys):
    status, out, _ = run(["coordinated", "--arrival-rate", "100",
                          "--trials", "20",
                          "--schemes", "coordinated-tdma,coordinated-noma"], capsys)
    assert status == 0
    assert "coordinated-tdma" in out and "coordinated-noma" in out


def test_coordinated_at_a_hundred_million_arrivals_prints_a_result(capsys):
    # each scheme draws only about as many devices as it admits (a few 10^4)
    status, out, err = run(["coordinated", "--arrival-rate", "1e8", "--trials", "1"], capsys)
    assert status == 0, err
    served = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()
              if line.startswith("coordinated-")}
    assert set(served) == {"coordinated-fdma", "coordinated-tdma", "coordinated-noma"}
    assert all(1e4 < value < 1e5 for value in served.values())


def test_coordinated_slots_where_every_device_fits_cost_no_device(capsys):
    # 10^12 arrivals, each fitting at the cell-edge demand: a slot admits them
    # all without drawing one, so its cost does not grow with the load
    start = time.perf_counter()
    status, out, err = run(["coordinated", "--arrival-rate", "1e12", "--payload-bits", "1e-6",
                            "--ref-snr", "1e300", "--trials", "1"], capsys)
    assert time.perf_counter() - start < 5.0
    assert status == 0, err
    served = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()
              if line.startswith("coordinated-")}
    assert set(served) == {"coordinated-fdma", "coordinated-tdma", "coordinated-noma"}
    assert len(set(served.values())) == 1 and abs(served["coordinated-fdma"] - 1e12) < 1e7


@pytest.mark.parametrize("command", ["sweep", "coordinated"])
def test_noma_with_a_snr_ratio_below_the_float_range_serves_none(command, tmp_path, capsys):
    # ref_snr / snr_floor = 1e-300 / 2**997 underflows to 0; its log2 does not
    keys = ["--schemes", "coordinated-noma", "--ref-snr", "1e-300",
            "--payload-bits", "9.97e8", "--trials", "2"]
    out_path = tmp_path / "rows.csv"
    if command == "sweep":
        argv = ["sweep", *keys, "--mode", "montecarlo", "--lambda-steps", "2",
                "--output", str(out_path)]
    else:
        argv = ["coordinated", *keys, "--arrival-rate", "100"]
    status, out, err = run(argv, capsys)
    assert status == 0, err
    if command == "sweep":
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.split(",")[3] == "0.0" for row in rows)
    else:
        served = out.splitlines()[-1].split()
        assert served[0] == "coordinated-noma" and float(served[1]) == 0.0


def test_coordinated_analytic_mode_rejected(capsys):
    status, out, err = run(["coordinated", "--mode", "analytic",
                            "--arrival-rate", "10"], capsys)
    assert (status, out) == (1, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "closed form" in lines[0] and "coordinated-fdma" in lines[0]


def test_rate_grid_too_large_to_allocate_is_one_error_line(tmp_path, capsys):
    # numpy refuses the 7 PiB grid at once, touching no memory
    out_path = tmp_path / "rows.csv"
    status, out, err = run(["sweep", "--lambda-steps", "1000000000000000", "--mode",
                            "analytic", "--schemes", "uncoordinated-fdma",
                            "--output", str(out_path)], capsys)
    assert (status, out) == (1, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "allocate" in lines[0], err
    assert not out_path.exists()


def forked_share_sweep(act, in_forked_share, tmp_path, capsys):
    """A two-share sweep whose forked share calls ``act()`` first: its exit
    status, stdout, stderr lines, and whether it wrote its CSV."""
    in_forked_share(act)
    out_path = tmp_path / "rows.csv"
    status, out, err = run(["sweep", "--workers", "2", "--schemes", "uncoordinated-tdma",
                            "--mode", "montecarlo", "--lambda-steps", "1",
                            "--trials", str(2 * sim.BLOCK_TRIALS),
                            "--output", str(out_path)], capsys)
    return status, out, err.strip().splitlines(), out_path.exists()


def test_dead_sweep_process_is_one_error_line(in_forked_share, tmp_path, capsys):
    # two shares: this process runs one, the process forked for the other exits
    status, out, lines, wrote = forked_share_sweep(lambda: os._exit(1), in_forked_share,
                                                   tmp_path, capsys)
    assert (status, out, wrote) == (1, "", False)
    assert len(lines) == 1 and lines[0].startswith("error:") and "died" in lines[0], lines
    assert "exit code 1" in lines[0]


def test_killed_sweep_process_is_one_error_line(in_forked_share, tmp_path, capsys):
    status, out, lines, wrote = forked_share_sweep(
        lambda: os.kill(os.getpid(), signal.SIGKILL), in_forked_share, tmp_path, capsys)
    assert (status, out, wrote) == (1, "", False)
    assert len(lines) == 1 and lines[0].startswith("error:") and "died" in lines[0], lines
    assert "SIGKILL" in lines[0]


def test_share_exception_pickle_cannot_carry_is_one_error_line(in_forked_share, tmp_path,
                                                               capsys):
    class Unpicklable(Exception):   # a local class: pickle cannot name it
        pass

    def fail():
        raise Unpicklable("share failed in a forked process")

    status, out, lines, wrote = forked_share_sweep(fail, in_forked_share, tmp_path, capsys)
    assert (status, out, wrote) == (1, "", False)
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "share failed in a forked process" in lines[0]


def test_tiny_partition_minimum_stops_the_design_scan(capsys):
    # at the defaults every count above ~2.2e6 sub-slots has feasible load 0,
    # so 1e300 admissible counts are scanned no further than 1e8 are
    designs = []
    for minimum in ("1e-8", "1e-300"):
        start = time.perf_counter()
        status, out, err = run(["cap", "--arrival-rate", "1000", "--min-slot-s", minimum],
                               capsys)
        assert status == 0, err
        assert time.perf_counter() - start < 5.0
        designs.append([line for line in out.splitlines() if line.startswith("tdma_")])
    assert designs[0] == designs[1]
    assert "tdma_partitions=1575" in designs[0]


@pytest.mark.parametrize("flag", ["--min-slot-s", "--min-subchannel-hz"])
def test_partition_count_past_the_float_range_is_one_error_line(flag, capsys):
    status, out, err = run(["cap", flag, "5e-324"], capsys)
    assert (status, out) == (1, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflows" in lines[0], err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command, scheme, rate, column", [
    ("coordinated", "coordinated-tdma", "3000", 2),
    ("uncoordinated", "uncoordinated-fdma", "2000", 8),
])
def test_single_rate_figure_is_the_one_rate_sweep_row(command, scheme, rate, column,
                                                      workers, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)   # workers=2 forks one process
    common = ["--schemes", scheme, "--trials", "200", "--master-seed", "7",
              "--workers", workers]
    status, out, err = run([command, "--arrival-rate", rate] + common, capsys)
    assert status == 0, err
    table = next(line.split() for line in out.splitlines() if line.startswith(scheme))
    out_path = tmp_path / "rows.csv"
    status, _, err = run(["sweep", "--mode", "montecarlo", "--lambda-steps", "1",
                          "--lambda-min", rate, "--output", str(out_path)] + common, capsys)
    assert status == 0, err
    (row,) = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    assert [table[column], table[column + 1]] == [f"{float(row[3]):.3f}",
                                                  f"{float(row[4]):.3f}"]


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", ["lambda_min", "lambda_max"])
def test_non_finite_rate_is_one_error_line(key, value, tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    status, out, err = run(["sweep", flag(key), value, "--lambda-steps", "2",
                            "--schemes", "uncoordinated-fdma", "--mode", "analytic",
                            "--output", str(out_path)], capsys)
    assert (status, out) == (1, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "finite" in lines[0], err
    assert not out_path.exists()
    with pytest.raises(ValueError, match="finite"):
        RunConfig(**{key: float(value)})


@pytest.mark.parametrize("argv", [
    ["sweep", "--trials", "100000000000000000000", "--schemes", "uncoordinated-tdma",
     "--mode", "montecarlo", "--lambda-steps", "1"],
    ["uncoordinated", "--arrival-rate", "1000", "--trials", "1000000000000000000000",
     "--schemes", "uncoordinated-tdma"],
], ids=lambda argv: argv[0])
def test_trials_past_the_substream_keys_are_one_error_line(argv, tmp_path, monkeypatch,
                                                           capsys):
    # rejected before any block runs: a run of 10**18 blocks never returns
    def no_blocks(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(sim, "_run_blocks", no_blocks)
    out_path = tmp_path / "rows.csv"
    status, out, err = run(argv + ["--output", str(out_path)], capsys)
    assert (status, out) == (1, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: trials must lie in"), err
    assert not out_path.exists()


# sha256 of coordinated_digest()'s sweep, recorded when each coordinated slot
# came to draw its placements from its own substream. After a deliberate
# change, print it with
#   PYTHONPATH=src:tests python -c "import test_cli as t; print(t.coordinated_digest())"
COORDINATED_GOLDEN = "b7a11eaeeab36da217cb9033a500ba58dd453dbaccd42fdb05ef587115b0bbd5"


def coordinated_digest():
    """sha256 of a 64-trial sweep of the three coordinated schemes."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "rows.csv"
        status = main(["sweep", "--schemes", "coordinated-fdma,coordinated-tdma,coordinated-noma",
                       "--lambda-min", "5000", "--lambda-max", "20000", "--lambda-steps", "4",
                       "--trials", "64", "--master-seed", "0", "--output", str(out_path)])
        assert status == 0
        return hashlib.sha256(out_path.read_bytes()).hexdigest()


def test_coordinated_sweep_bytes_are_pinned():
    assert coordinated_digest() == COORDINATED_GOLDEN


UNCOORDINATED_SCHEMES = "uncoordinated-fdma,uncoordinated-tdma,uncoordinated-noma"
# sha256 of 128-trial sweeps (two blocks, so workers=2 forks a process): the
# coordinated ones recorded when each coordinated slot came to draw its
# placements from its own substream, the uncoordinated ones when
# random-access slots came to draw their served count first, from its
# Binomial(N, mu e^-mu) law. After a deliberate change, print
# every case's digest at --workers 1 and 2, as the test below computes it, with
#   PYTHONPATH=src:tests python -c "import test_cli as t; [print(c, w, t.sweep_digest(c, w)) for c in t.SWEEP_GOLDENS for w in '12']"
SWEEP_GOLDENS = {
    "coordinated": (["--schemes", "coordinated-fdma,coordinated-tdma,coordinated-noma",
                     "--lambda-min", "5000", "--lambda-max", "20000", "--lambda-steps", "4"],
                    "9f4c9b071f3b563b03203232da2ca9f5d726061e65967388c7cfa6f03559ca94"),
    "uncoordinated": (["--schemes", UNCOORDINATED_SCHEMES],
                      "40ca3e1ef360c80f4407c29334bcde56f14c67903881ccafc9bfe4bfb67062c1"),
    "uncoordinated-fine-minima": (["--schemes", UNCOORDINATED_SCHEMES, "--min-slot-s", "1e-4",
                                   "--min-subchannel-hz", "100"],
                                  "6b0fe0a572fe12ee844f0b3f9fcd5783946905342cbfd30b43e5df9c0cfc5595"),
    "uncoordinated-rederived": (["--schemes", UNCOORDINATED_SCHEMES,
                                 "--noma-snr-rule", "rederived"],
                                "2933f9012b32772fd220228e971ded59ca8aa38bf3b8e267aaa4505d21990033"),
    "coordinated-enforce-minimum": (["--schemes",
                                     "coordinated-fdma,coordinated-tdma,coordinated-noma",
                                     "--lambda-min", "5000", "--lambda-max", "20000",
                                     "--lambda-steps", "4", "--enforce-minimum"],
                                    "b93846b2a2a88a2907a2e4cb057178b2ed63b30c4db84bc05e5b8ecb4d7f6edf"),
    "uncoordinated-pathloss-exp": (["--schemes", UNCOORDINATED_SCHEMES, "--pathloss-exp", "3.1"],
                                   "2a6c3519c61de87240c9889ab7caaf3bf94f28a9e8b81c509bbba3d19c99deb4"),
    "uncoordinated-slot-s": (["--schemes", UNCOORDINATED_SCHEMES, "--slot-s", "10"],
                             "5d94629b8f632b80d69f35e06ab7db9a282067ab9329c9fccb57542ea2836b77"),
}


def sweep_digest(case, workers):
    """sha256 of SWEEP_GOLDENS[case]'s CSV at ``workers`` ("1" or "2"), on two CPUs."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sim, "_usable_cpus",
                                                                 lambda: 2):
        out_path = Path(tmp) / "rows.csv"
        status = main(["sweep", *SWEEP_GOLDENS[case][0], "--trials", "128", "--master-seed",
                       "0", "--workers", workers, "--output", str(out_path)])
        assert status == 0
        return hashlib.sha256(out_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", SWEEP_GOLDENS)
def test_sweep_bytes_are_pinned_at_any_worker_count(case, workers):
    assert sweep_digest(case, workers) == SWEEP_GOLDENS[case][1]


def test_three_scheme_sweep_solves_each_design_once(tmp_path, monkeypatch, capsys):
    # mode=both: the analytic and the Monte Carlo row of a rate share one design
    solves = Counter()
    for name in ("optimize_design", "noma_design"):
        def counted(*args, solve=getattr(sim.un, name), name=name):
            solves[name] += 1
            return solve(*args)

        monkeypatch.setattr(sim.un, name, counted)
    status, _, err = run(["sweep", "--schemes", UNCOORDINATED_SCHEMES, "--trials", "64",
                          "--output", str(tmp_path / "rows.csv")], capsys)
    assert status == 0, err
    assert solves == {"optimize_design": 16, "noma_design": 8}


@pytest.mark.parametrize("argv", [
    ["sweep", "--schemes", UNCOORDINATED_SCHEMES],
    ["uncoordinated", "--arrival-rate", "2000"],
], ids=lambda argv: argv[0])
def test_one_set_of_forks_serves_every_scheme(argv, fork_log, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    status, _, err = run(argv + ["--trials", "128", "--workers", "2",
                                 "--output", str(tmp_path / "rows.csv")], capsys)
    assert status == 0, err
    assert fork_log.forks == 1


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("mode", cli.MODES)
def test_mixed_scheme_sweep_is_the_single_scheme_sweeps_in_turn(mode, workers, tmp_path,
                                                               monkeypatch, capsys):
    # families mixed, out of their usual order; coordinated schemes have no
    # analytic rows, so mode=analytic keeps the uncoordinated ones
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    schemes = [scheme for scheme in ("uncoordinated-noma", "coordinated-tdma",
                                     "uncoordinated-fdma")
               if mode != "analytic" or scheme.startswith("uncoordinated")]

    def csv_lines(schemes):
        out_path = tmp_path / "rows.csv"
        status, _, err = run(["sweep", "--schemes", ",".join(schemes), "--mode", mode,
                              "--lambda-min", "100", "--lambda-max", "400",
                              "--lambda-steps", "2", "--trials", "128", "--master-seed", "5",
                              "--workers", workers, "--output", str(out_path)], capsys)
        assert status == 0, err
        return out_path.read_text().splitlines()

    single = [line for scheme in schemes for line in csv_lines([scheme])[1:]]
    assert csv_lines(schemes) == [CSV_HEADER] + single


@pytest.mark.parametrize("argv", [
    ["cap", "--ref-snr", "1e306"],                                  # N ref_snr overflows
    ["uncoordinated", "--ref-snr", "1e306", "--mode", "analytic"],
    ["sweep", "--ref-snr", "1e306", "--mode", "analytic", "--schemes", "uncoordinated-fdma"],
    ["coordinated", "--pathloss-exp", "1000", "--arrival-rate", "1000", "--trials", "2"],
    ["coordinated", "--pathloss-exp", "2000", "--arrival-rate", "100000", "--trials", "2",
     "--schemes", "coordinated-fdma"],                              # inf gains' widths
    ["coordinated", "--ref-snr", "5e-324", "--schemes", "coordinated-tdma",
     "--enforce-minimum", "--trials", "2", "--arrival-rate", "1000"],
    ["coordinated", "--ref-snr", "1e300", "--schemes", "coordinated-tdma", "--payload-bits",
     "1e6", "--trials", "2", "--arrival-rate", "100000"],           # ref_snr * gain overflows
], ids=lambda argv: " ".join(argv[:3]))
def test_overflowing_inputs_print_the_result_without_warnings(argv, tmp_path, capsys):
    # a numpy RuntimeWarning is an error under this suite's filterwarnings
    out_path = tmp_path / "rows.csv"
    status, out, err = run(argv + ["--output", str(out_path)], capsys)
    assert status == 0, err
    assert out or out_path.exists()
    assert err == ("" if argv[0] != "sweep" else f"wrote 8 rows to {out_path}\n")


def test_overflowing_tdma_sweep_prints_its_row_without_warnings(tmp_path, capsys):
    # inf time shares, and a running sum of finite ones past the float range
    out_path = tmp_path / "rows.csv"
    status, _, err = run(["sweep", "--ref-snr", "5e-324", "--schemes", "coordinated-tdma",
                          "--enforce-minimum", "--trials", "2", "--lambda-min", "1e6",
                          "--lambda-max", "1e6", "--lambda-steps", "1", "--mode", "montecarlo",
                          "--output", str(out_path)], capsys)
    assert status == 0, err
    assert err == f"wrote 1 rows to {out_path}\n"
    assert len(out_path.read_text().splitlines()) == 2


@pytest.mark.parametrize("argv", [
    ["uncoordinated", "--arrival-rate", "1e19", "--trials", "64"],
    ["sweep", "--mode", "both", "--schemes", "uncoordinated-tdma", "--lambda-max", "1e19",
     "--lambda-steps", "2"],
], ids=lambda argv: argv[0])
def test_arrivals_past_the_poisson_limit_are_one_error_line(argv, tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    status, out, err = run(argv + ["--output", str(out_path)], capsys)
    assert (status, out) == (1, "")
    assert err == (f"error: arrival_rate * slot_s = 1e+19 exceeds {sim.POISSON_MAX:g}, "
                   "the largest Poisson mean numpy draws arrivals from\n")
    assert not out_path.exists()
    # the analytic rows at that rate stay results
    status, _, err = run(["sweep", "--mode", "analytic", "--schemes", "uncoordinated-tdma",
                          "--lambda-max", "1e19", "--lambda-steps", "2",
                          "--output", str(out_path)], capsys)
    assert status == 0, err
    assert len(out_path.read_text().splitlines()) == 3
