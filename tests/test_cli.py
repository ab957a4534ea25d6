"""Command-line surface: config handling, artifact layout, exit codes."""

import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (MALFORMED_SUMMARIES, make_tiny, package_env,
                      summary_record, tiny_dict, zero_conc_split)
from transportid.cli import ExperimentConfig, main
from transportid.identification import IdentifyConfig, PreparedData, identify
from transportid.errors import SolverError, ValidationError
from transportid.persist import (read_summary_json, scenario_from_dict,
                                 summary_dict, write_field_csv)
from transportid.preprocess import NoiseSpec, SmoothingConfig
from transportid.transport import ScenarioConfig, sample_measurements, simulate


def tiny_config(tmp_path, **overrides):
    record = {"scenario": "custom", "custom_scenario": tiny_dict(),
              "output_dir": str(tmp_path / "out")}
    record.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(record))
    return path


def full_record(tmp_path) -> dict:
    """A valid tiny config that sets every key of every block."""
    return {"scenario": "custom", "library": "basic", "noise_delta": 0.0,
            "noise_seed": 0, "n_restarts": 2, "master_seed": 0,
            "output_dir": str(tmp_path / "out"),
            "custom_scenario": tiny_dict(),
            "bounds": {"names": ["a", "K_l"], "lower": [0.3, 40.0],
                       "upper": [0.7, 140.0]},
            "smoothing": dataclasses.asdict(SmoothingConfig())}


# -------------------------------------------------- experiment config

def test_experiment_config_round_trip():
    cfg = ExperimentConfig(scenario="s2", noise_delta=0.05, noise_seed=7,
                           n_restarts=4, master_seed=3, output_dir="work")
    record = cfg.to_dict()
    back = ExperimentConfig.from_dict(record)
    assert back == cfg
    assert back.to_dict() == record


def test_experiment_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="bogus, zebra"):
        ExperimentConfig.from_dict({"scenario": "s1", "zebra": 2, "bogus": 1})


def test_experiment_config_collects_all_problems():
    with pytest.raises(ValidationError) as err:
        ExperimentConfig(scenario="s9", library="huge", noise_delta=1.0)
    message = str(err.value)
    for fragment in ("scenario='s9'", "library='huge'", "noise_delta=1.0"):
        assert fragment in message
    with pytest.raises(ValidationError, match="custom_scenario"):
        ExperimentConfig(scenario="custom")
    with pytest.raises(ValidationError, match="n_restarts"):
        ExperimentConfig(n_restarts=0)


def test_experiment_config_builds_identify_overrides():
    cfg = ExperimentConfig(
        bounds={"names": ["a", "K_l"], "lower": [0.3, 40.0],
                "upper": [0.7, 140.0]},
        smoothing={"half_window_x": 4})
    id_cfg = cfg.identify_config()
    assert id_cfg.bounds.lower == (0.3, 40.0)
    assert id_cfg.bounds.upper == (0.7, 140.0)
    assert id_cfg.smoothing.half_window_x == 4

    for block, removed in (("smoothing", "half_window_cheb_t"),
                           ("smoothing", "half_window_ls_t"),
                           ("smoothing", "half_window_cheb_x"),
                           ("smoothing", "half_window_ls_x"),
                           ("smoothing", "degree_cheb"),
                           ("smoothing", "order_ls"),
                           ("smoothing", "max_passes"),
                           ("smoothing", "fluctuation_factor")):
        with pytest.raises(ValidationError,
                           match=f"unknown {block} keys: {removed}"):
            ExperimentConfig(**{block: {removed: 5}}).identify_config()
    with pytest.raises(ValidationError, match="bounds block missing"):
        ExperimentConfig(bounds={"names": ["a", "K_l"],
                                 "lower": [0.3, 40.0]}).identify_config()
    with pytest.raises(ValidationError, match="unknown bounds keys"):
        ExperimentConfig(bounds={"names": ["a", "K_l"], "lower": [0.3, 40.0],
                                 "upper": [0.7, 140.0],
                                 "slack": 2}).identify_config()


# One key at a time is set to each of these JSON values; a string
# output_dir is left out, as it names a real directory.
_CONFIG_VALUES = [None, True, False, 0, 1, -1, 2.5, 1e308, float("nan"),
                  float("inf"), float("-inf"), "", "x", "0.01", [], [1],
                  [0.3, 40.0], {}, {"a": 1}]


def _block(record, name):
    if name == "config":
        return record
    if name == "sorption":
        return record["custom_scenario"]["sorption"]
    return record[name]


def _load(record):
    """What every subcommand does with a config before its own work."""
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(record)))
    assert isinstance(cfg.scenario_config(), ScenarioConfig)
    assert isinstance(cfg.identify_config(), IdentifyConfig)
    cfg.noise_spec()
    Path(cfg.output_dir)


@pytest.mark.parametrize("name", ["config", "custom_scenario", "sorption",
                                  "bounds", "smoothing"])
def test_every_config_value_loads_or_fails_validation(tmp_path, name):
    """Any one key of any block set to any value of the grid either loads,
    with every block built, or raises ValidationError; nothing else
    escapes."""
    _load(full_record(tmp_path))
    escapes = []
    for key in list(_block(full_record(tmp_path), name)):
        for value in _CONFIG_VALUES:
            if key == "output_dir" and isinstance(value, str):
                continue
            record = full_record(tmp_path)
            _block(record, name)[key] = value
            try:
                _load(record)
            except ValidationError:
                pass
            except Exception as exc:
                escapes.append(f"{key}={value!r}: {type(exc).__name__}: {exc}")
    assert escapes == []


def test_noise_spec_only_built_when_delta_positive():
    assert ExperimentConfig(noise_delta=0.0).noise_spec() is None
    spec = ExperimentConfig(noise_delta=0.05, noise_seed=4).noise_spec()
    assert spec.delta == 0.05 and spec.seed == 4


# ------------------------------------------------------------ simulate

def test_simulate_writes_clean_field_and_metadata(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0

    out = tmp_path / "out"
    expected = tmp_path / "expected.csv"
    write_field_csv(sample_measurements(simulate(make_tiny())[0], make_tiny()),
                    expected)
    assert (out / "measurements_clean.csv").read_bytes() == expected.read_bytes()
    assert not (out / "measurements_noisy.csv").exists()

    record = json.loads((out / "metadata.json").read_text())
    assert scenario_from_dict(record["scenario_config"]) == make_tiny()
    assert record["experiment"]["scenario"] == "custom"
    assert record["files"] == ["measurements_clean.csv"]
    assert "measurements_clean.csv" in capsys.readouterr().out


def test_simulate_noisy_output_is_reproducible(tmp_path):
    cfg_path = tiny_config(tmp_path, noise_delta=0.05, noise_seed=2)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0

    noisy, clean = (list(csv.reader((out_a / name).read_text().splitlines()))
                    for name in ("measurements_noisy.csv",
                                 "measurements_clean.csv"))
    assert len(noisy) == len(clean) == 1 + 25 * 201
    assert [row[:2] for row in noisy] == [row[:2] for row in clean]
    # the noisy dump keeps every grid point so the draw stays comparable
    assert {row[3] for row in noisy[1:]} == {"1"}
    assert any(a[2] != b[2] for a, b in zip(noisy[1:], clean[1:]))
    assert ((out_a / "measurements_noisy.csv").read_bytes()
            == (out_b / "measurements_noisy.csv").read_bytes())


def test_simulate_flag_overrides_config(tmp_path):
    cfg_path = tiny_config(tmp_path, noise_delta=0.05)
    out = tmp_path / "quiet"
    assert main(["simulate", "--config", str(cfg_path),
                 "--noise", "0.0", "--out", str(out)]) == 0
    assert not (out / "measurements_noisy.csv").exists()
    record = json.loads((out / "metadata.json").read_text())
    assert record["experiment"]["noise_delta"] == 0.0


# ------------------------------------------------------------ identify

def test_identify_writes_runs_summary_traces(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "ident"
    assert main(["identify", "--config", str(cfg_path), "--restarts", "3",
                 "--seed", "1", "--out", str(out)]) == 0

    # The tiny scenario ends on the parameter-free library (adv, dis),
    # which is fitted once.
    with (out / "runs.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["run_id"] == "0"

    summary = read_summary_json(out / "summary.json")
    assert summary["scenario"] == "custom"
    assert summary["equation"].startswith("dC/dt = ")
    assert {"adv", "dis"} <= set(summary["selected_terms"])
    assert summary["runs"]["total"] == 1
    assert summary["params"] == []

    traces = sorted(p.name for p in (out / "traces").iterdir())
    assert traces == ["run_000.csv"]
    first_line = (out / "traces" / "run_000.csv").read_text().splitlines()[0]
    assert first_line == "iteration,accepted,lambda,eps"

    record = json.loads((out / "metadata.json").read_text())
    assert record["experiment"]["n_restarts"] == 3
    assert record["experiment"]["master_seed"] == 1

    printed = capsys.readouterr().out
    assert "selected terms:" in printed
    assert "dC/dt = " in printed


def test_python_summary_equals_the_cli_summary(tmp_path):
    """``summary_dict`` of a report built in Python holds exactly what the
    CLI writes to summary.json for the same scenario, noise and seeds,
    point count included."""
    out = tmp_path / "out"
    assert main(["identify", "--scenario", "s2-fast", "--noise", "0.05",
                 "--restarts", "2", "--out", str(out)]) == 0
    report = identify("s2-fast", noise=NoiseSpec(0.05),
                      cfg=IdentifyConfig(n_restarts=2))
    written = json.loads((out / "summary.json").read_text())
    assert written["n_points"] == report.data.n_points
    assert json.loads(json.dumps(summary_dict(report))) == written


def test_jobs_key_and_flag_exit_2(tmp_path, capsys):
    """The ``jobs`` key and ``--jobs`` flag are gone: restarts always ran
    serially, so a config or script that still sets them is a
    configuration error."""
    cfg_path = tiny_config(tmp_path, jobs=2)
    assert main(["identify", "--config", str(cfg_path), "--restarts", "2"]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: jobs\n"
    cfg_path = tiny_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["identify", "--config", str(cfg_path), "--restarts", "2",
              "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------- report

def test_report_tabulates_summaries(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "ident"
    assert main(["identify", "--config", str(cfg_path), "--restarts", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    summary_path = out / "summary.json"

    table_path = tmp_path / "table.csv"
    assert main(["report", str(summary_path), str(summary_path),
                 "--out", str(table_path)]) == 0
    lines = table_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("scenario,noise_delta,")
    assert lines[0].endswith(",equation")
    assert lines[1] == lines[2]
    assert lines[1].startswith("custom,0.0,")

    assert main(["report", str(summary_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == lines[0]


@pytest.mark.parametrize("name", sorted(MALFORMED_SUMMARIES))
def test_report_exits_2_on_a_malformed_summary(tmp_path, capsys, name):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(summary_record()))
    bad = tmp_path / "bad.json"
    bad.write_text(MALFORMED_SUMMARIES[name])
    table = tmp_path / "table.csv"
    assert main(["report", str(good), str(bad), "--out", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: ")
    assert captured.err.count("\n") == 1
    assert not table.exists()


def test_report_process_exits_2_without_a_traceback(tmp_path):
    bad = tmp_path / "num.json"
    bad.write_text("5")
    proc = subprocess.run([sys.executable, "-m", "transportid.cli", "report",
                           str(bad)], env=package_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {bad}: not a JSON object\n"


def test_cli_process_never_imports_scipy(tmp_path):
    """The solver calls numpy's own LAPACK: a fresh interpreter that runs
    ``identify`` on a tiny Freundlich config (gtsv in every Picard sweep)
    and ``simulate`` on the tiny linear one (gttrf and gttrs) loads no scipy
    module."""
    freundlich = {"kind": "freundlich", "k_f": 0.05, "a": 0.7}
    linear_path = tiny_config(tmp_path)
    sorbing_path = tmp_path / "freundlich.json"
    sorbing_path.write_text(json.dumps(
        {"scenario": "custom", "n_restarts": 2,
         "custom_scenario": tiny_dict() | {"sorption": freundlich}}))
    script = """
import sys
from transportid.cli import main
linear, sorbing, out = sys.argv[1:]
assert main(["identify", "--config", sorbing, "--out", out + "/id"]) == 0
assert main(["simulate", "--config", linear, "--out", out + "/sim"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", script, str(linear_path),
                           str(sorbing_path), str(tmp_path / "out")],
                          env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "id" / "summary.json").exists()


# ----------------------------------------------------------- exit codes

def test_exit_validation_on_bad_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["simulate", "--config", str(broken)]) == 2

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["simulate", "--config", str(not_object)]) == 2

    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"scenario": "s\xff"}')
    assert main(["simulate", "--config", str(not_utf8)]) == 2

    unknown_scenario = tmp_path / "unknown.json"
    unknown_scenario.write_text(json.dumps({"scenario": "s9"}))
    assert main(["simulate", "--config", str(unknown_scenario)]) == 2

    extra_key = tmp_path / "extra.json"
    extra_key.write_text(json.dumps({"scenario": "s1", "speed": "fast"}))
    assert main(["simulate", "--config", str(extra_key)]) == 2


# json.loads reads NaN, Infinity, 2.5 and true where a finite float or a
# whole count belongs, half_window_ls_x is no longer a setting, and a block
# or a bound can be any JSON value; each must stop the run before any work
# is done.  The assimilation block is no longer a setting either (0.15.0):
# an old config's block is refused whatever it holds.
@pytest.mark.parametrize("text", [
    '{"assimilation": {"lambda0": NaN}}',
    '{"assimilation": {"c_eps_scale": Infinity}}',
    '{"assimilation": {"max_accepted": 2.5}}',
    '{"assimilation": {"gamma": 5}}',
    '{"bounds": {"names": ["a", "K_l"], "lower": [NaN, 40.0], '
    '"upper": [0.7, 140.0]}}',
    '{"bounds": {"names": ["a", "K_l"], "lower": [0.3, 40.0], '
    '"upper": [0.7, Infinity]}}',
    '{"smoothing": {"half_window_t": 2.5}}',
    '{"smoothing": {"half_window_ls_x": NaN}}',
    '{"smoothing": {"half_window_x": NaN}}',
    '{"n_restarts": 2.5}',
    '{"master_seed": 1.5}',
    '{"assimilation": {"lambda0": true}}',
    '{"n_restarts": true}',
    '{"assimilation": [1]}',
    '{"smoothing": 3}',
    '{"bounds": [0.3, 0.7]}',
    '{"bounds": {"names": ["a", "K_l"], "lower": ["x", 40.0], '
    '"upper": [0.7, 140.0]}}',
    '{"bounds": {"names": ["a", "K_l"], "lower": [false, 40.0], '
    '"upper": [0.7, 140.0]}}',
    '{"bounds": {"names": ["a", "K_l"], "lower": 0.3, '
    '"upper": [0.7, 140.0]}}',
    '{"custom_scenario": [1]}',
    '{"output_dir": 5}',
    '{"output_dir": null}',
    '{"output_dir": true}',
    '{"output_dir": ["out"]}',
    '{"output_dir": {}}',
    '{"bounds": {"names": "aK", "lower": [0.3, 40.0], '
    '"upper": [0.7, 140.0]}}',
    '{"master_seed": -1}',
    '{"noise_delta": 0.05, "noise_seed": -1}',
    '{"noise_seed": -1}',
])
def test_exit_validation_on_bad_numbers(tmp_path, capsys, text):
    record = {"n_restarts": 2, **json.loads(text)}
    cfg_path = tiny_config(tmp_path, **record)
    assert main(["identify", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out" / "summary.json").exists()


def test_negative_noise_seed_flag_exits_2_without_noise(tmp_path, capsys):
    """A negative noise seed is an invalid key even when no noise is drawn,
    as it is with noise."""
    out = tmp_path / "out"
    assert main(["identify", "--scenario", "s1", "--restarts", "2",
                 "--noise-seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid config keys: noise_seed=-1\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["c0", "conc_floor"])
def test_exit_validation_on_non_finite_scenario_value(tmp_path, capsys, key):
    scenario = tiny_dict()
    scenario[key] = float("nan")
    cfg_path = tiny_config(tmp_path, custom_scenario=scenario)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be finite")
    assert not (tmp_path / "out" / "measurements_clean.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("c0", True),
    ("sim_store_dt", True),
    ("meas_x_count", 25.5),
    ("sorption", {"kind": "none", "k_f": True, "a": 1.0, "k_l": 0.0,
                  "s_bar": 0.0}),
    ("meas_t_end", float("inf")),
    ("sim_length", 1e308),
    ("c0", 1e7),
    ("c0", 1e308),
    ("sim_order", True),
    ("sim_order", 3),
    ("sim_order", 2.0),
])
def test_exit_validation_on_mistyped_scenario_value(tmp_path, capsys, key,
                                                    value):
    scenario = tiny_dict()
    scenario[key] = value
    cfg_path = tiny_config(tmp_path, custom_scenario=scenario)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out" / "measurements_clean.csv").exists()


# Every block is built when the config is loaded, so each subcommand
# rejects the same malformed block before it does any work.  The
# assimilation block, removed in 0.15.0, is refused whatever it holds.
_MALFORMED_BLOCKS = {
    "scenario-key": {"custom_scenario": tiny_dict() | {"bogus": 1}},
    "sorption-key": {"custom_scenario": tiny_dict() | {
        "sorption": {"kind": "none", "bogus": 1}}},
    "bounds-key": {"bounds": {"names": ["a"], "lower": [0.3],
                              "upper": [0.7], "slack": 2}},
    "assimilation-key": {"assimilation": {"bogus": 1}},
    "smoothing-key": {"smoothing": {"bogus": 1}},
    "scenario-missing-key": {"custom_scenario": {"v_x": 0.01}},
    "bounds-missing-key": {"bounds": {"names": ["a"], "lower": [0.3]}},
    "scenario-not-object": {"custom_scenario": [1]},
    "sorption-not-object": {"custom_scenario": tiny_dict() | {
        "sorption": "none"}},
    "bounds-not-object": {"bounds": [0.3]},
    "assimilation-not-object": {"assimilation": 5},
    "smoothing-not-object": {"smoothing": "wide"},
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_BLOCKS))
def test_every_subcommand_rejects_a_malformed_block(tmp_path, capsys, name):
    cfg_path = tiny_config(tmp_path, **_MALFORMED_BLOCKS[name])
    for command in ("simulate", "identify"):
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_assimilation_block_is_an_unknown_key(tmp_path, capsys):
    """The update loop has no settings, so a config that still carries
    its block stops every subcommand before any work is done."""
    cfg_path = tiny_config(tmp_path, assimilation={"lambda0": 10.0})
    for command in ("simulate", "identify"):
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config keys: assimilation\n")
    assert not (tmp_path / "out").exists()


def test_exit_validation_message_goes_to_stderr(tmp_path, capsys):
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"scenario": "s9"}))
    assert main(["simulate", "--config", str(unknown)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_exit_numeric_on_solver_failure(tmp_path, monkeypatch, capsys):
    def exploding_identify(*args, **kwargs):
        raise SolverError("update step diverged")

    monkeypatch.setattr("transportid.cli.identify", exploding_identify)
    cfg_path = tiny_config(tmp_path)
    assert main(["identify", "--config", str(cfg_path), "--restarts", "2"]) == 3
    assert "numeric failure: update step diverged" in capsys.readouterr().err


def zero_conc_data(config, name, **kwargs):
    """``prepare_dataset`` on data whose first point has C = 0, where the
    Freundlich candidate cannot be evaluated."""
    return PreparedData(scenario_name=name, split=zero_conc_split(),
                        noise=None)


def test_exit_numeric_when_every_restart_fails(tmp_path, monkeypatch, capsys):
    """With the Freundlich model as the only candidate, no restart of any
    candidate evaluates."""
    monkeypatch.setattr("transportid.cli.prepare_dataset", zero_conc_data)
    monkeypatch.setattr("transportid.identification._candidate_splits",
                        lambda library: [("fsorp", ("adv", "dis", "fsorp"))])
    cfg_path = tiny_config(tmp_path)
    assert main(["identify", "--config", str(cfg_path), "--restarts", "2"]) == 3
    err = capsys.readouterr().err
    assert "every restart failed" in err and "'fsorp'" in err
    assert "DLASCL" not in err


def test_identify_records_a_failed_candidate(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("transportid.cli.prepare_dataset", zero_conc_data)
    cfg_path = tiny_config(tmp_path)
    assert main(["identify", "--config", str(cfg_path), "--restarts", "2"]) == 0
    captured = capsys.readouterr()
    assert "candidate fsorp failed: every restart failed" in captured.out
    assert captured.err == ""
    record = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [f["name"] for f in record["failed_candidates"]] == ["fsorp"]
    assert [c["name"] for c in record["candidates"]] == ["none", "lsorp"]


def test_exit_validation_when_bounds_omit_a_parameter(tmp_path, capsys):
    """A bounds block without ``a`` cannot drive the Freundlich candidate:
    that is a configuration error (exit 2), not a restart failure (exit 3)."""
    bounds = {"names": ["K_l"], "lower": [30.0], "upper": [150.0]}
    cfg_path = tiny_config(tmp_path, bounds=bounds)
    assert main(["identify", "--config", str(cfg_path), "--restarts", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: no bounds for parameters ['a']\n"


def test_exit_io_when_output_dir_is_a_file(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("occupied")
    cfg_path = tiny_config(tmp_path, output_dir=str(blocked))
    assert main(["simulate", "--config", str(cfg_path)]) == 4
    assert capsys.readouterr().err.startswith("i/o failure:")
