import dataclasses
import math
from pathlib import Path

import pytest

from ma_bench import SystemParams, cli
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
    assert status != 0
    assert "closed form" in err


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


def test_coordinated_summary_table(capsys):
    status, out, _ = run(["coordinated", "--arrival-rate", "100",
                          "--trials", "20",
                          "--schemes", "coordinated-tdma,coordinated-noma"], capsys)
    assert status == 0
    assert "coordinated-tdma" in out and "coordinated-noma" in out


def test_coordinated_analytic_mode_rejected(capsys):
    status, _, err = run(["coordinated", "--mode", "analytic",
                          "--arrival-rate", "10"], capsys)
    assert status != 0
    assert "closed form" in err
