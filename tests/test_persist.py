"""Writers for fields, run tables, traces and summaries; the summary reader.

Every writer emits repr-formatted floats, so the stdlib ``csv`` and
``json`` modules read back each written value exactly.
"""

import csv
import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (MALFORMED_SUMMARIES, assimilation_settings, make_tiny,
                      manufactured_field, summary_record)
from transportid.errors import ValidationError
from transportid.identification import (FailedCandidate, IdentifyConfig,
                                        PreparedData, identify, run_single)
from transportid.library import LibrarySpec
from transportid.params import ModelParams, ParamBounds
from transportid.persist import (read_summary_json, report_table,
                                 scenario_from_dict, scenario_to_dict,
                                 summary_dict, write_field_csv, write_metadata,
                                 write_runs_csv, write_summary_json,
                                 write_trace_csv)
from transportid.preprocess import NoiseSpec, split_train_test
from transportid.regression import PredictionErrorEvaluator
from transportid.scenarios import get_scenario
from transportid.transport import Field

ADF_ALPHA = {"adv": -0.01, "dis": 0.01, "fsorp": -0.15}


def small_field() -> Field:
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 0.2, size=(4, 3))
    mask = np.ones((4, 3), dtype=bool)
    mask[1, 2] = False
    mask[3, 0] = False
    return Field(values=values, x0=2.0, dx=0.5, t0=100.0, dt=10.0, mask=mask)


@pytest.fixture(scope="module")
def adf_runs():
    split = split_train_test(manufactured_field(ADF_ALPHA), 0.6)
    lib = LibrarySpec.from_name("basic").subset(("adv", "dis", "fsorp"))
    starts = [ModelParams(("a",), (0.3,)), ModelParams(("a",), (0.7,))]
    evaluator = PredictionErrorEvaluator(split, lib)
    bounds = ParamBounds.default().restrict(("a",))
    with assimilation_settings((("_MAX_ACCEPTED", 8),)):
        return [run_single(evaluator, m0, bounds, run_id=i)
                for i, m0 in enumerate(starts)]


@pytest.fixture(scope="module")
def adf_report():
    split = split_train_test(manufactured_field(ADF_ALPHA), 0.6)
    data = PreparedData(scenario_name="manufactured", split=split,
                        noise=None)
    return identify(make_tiny(), cfg=IdentifyConfig(n_restarts=3, master_seed=1),
                    data=data)


def csv_rows(path) -> list:
    """The rows of a written CSV file, header first, as stdlib ``csv`` reads them."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------- field CSV

def test_field_csv_round_trip_is_byte_identical(tmp_path):
    """A field rebuilt from the written cells writes the same bytes."""
    field = small_field()
    first = tmp_path / "field.csv"
    write_field_csv(field, first)

    cells = np.array(csv_rows(first)[1:]).reshape(field.n_t, field.n_x, 4)
    back = Field(values=cells[:, :, 2].astype(float).T,
                 x0=float(cells[0, 0, 0]), dx=field.dx,
                 t0=float(cells[0, 0, 1]), dt=field.dt,
                 mask=(cells[:, :, 3] == "1").T)
    assert np.array_equal(back.values, field.values)
    assert np.array_equal(back.mask, field.mask)
    assert back.x0 == field.x0 and back.t0 == field.t0

    second = tmp_path / "again.csv"
    write_field_csv(back, second)
    assert first.read_bytes() == second.read_bytes()


coordinate_origins = st.floats(min_value=-1e9, max_value=1e9,
                               allow_nan=False)
steps = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def fields(draw):
    """Fields whose masked-out entries may hold NaN."""
    n_x = draw(st.integers(1, 5))
    n_t = draw(st.integers(1, 5))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n_x * n_t,
                                  max_size=n_x * n_t))).reshape(n_x, n_t)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array([draw(finite if ok else st.one_of(finite,
                                                        st.just(np.nan)))
                       for ok in mask.ravel()]).reshape(n_x, n_t)
    return Field(values=values, x0=draw(coordinate_origins), dx=draw(steps),
                 t0=draw(coordinate_origins), dt=draw(steps), mask=mask)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=fields())
@example(field=Field(values=np.ones((2, 3)), x0=0.0, dx=0.5,
                     t0=1e8, dt=0.1))
@example(field=Field(values=np.ones((2, 3)), x0=0.0, dx=0.5,
                     t0=1e6, dt=0.1))
def test_field_csv_round_trip_property(tmp_path, field):
    """Every row reads back, time outer and space inner, as exactly the
    field's coordinates, value (NaN where an entry is masked out) and
    mask flag."""
    path = tmp_path / "field.csv"
    write_field_csv(field, path)
    rows = csv_rows(path)[1:]
    expected = [(field.x[i], field.t[k], field.values[i, k], field.mask[i, k])
                for k in range(field.n_t) for i in range(field.n_x)]
    assert len(rows) == len(expected)
    for row, (x, t, value, valid) in zip(rows, expected):
        assert [float(cell) for cell in row[:2]] == [x, t]
        assert np.array_equal(float(row[2]), value, equal_nan=True)
        assert row[3] == ("1" if valid else "0")


def test_field_csv_layout(tmp_path):
    field = small_field()
    path = tmp_path / "field.csv"
    write_field_csv(field, path)

    lines = path.read_text().splitlines()
    assert lines[0] == "x_cm,t_s,C_mg_per_l,valid"
    assert len(lines) == 1 + field.n_x * field.n_t
    # time outer, space inner: consecutive rows advance x at fixed t
    row1 = lines[1].split(",")
    row2 = lines[2].split(",")
    assert float(row1[0]) == 2.0 and float(row1[1]) == 100.0
    assert float(row2[0]) == 2.5 and float(row2[1]) == 100.0
    row_next_block = lines[1 + field.n_x].split(",")
    assert float(row_next_block[0]) == 2.0
    assert float(row_next_block[1]) == 110.0
    flags = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert flags == {"0", "1"}


# ------------------------------------------------- scenario dicts, metadata

@pytest.mark.parametrize("config", [get_scenario("s2"), make_tiny()],
                         ids=["preset", "custom"])
def test_scenario_dict_round_trip(config):
    record = scenario_to_dict(config)
    assert isinstance(record["sorption"], dict)
    back = scenario_from_dict(record)
    assert back == config
    assert scenario_to_dict(back) == record


def test_scenario_from_dict_guards():
    record = scenario_to_dict(get_scenario("s1"))

    missing = dict(record)
    del missing["sorption"]
    with pytest.raises(ValidationError, match="sorption"):
        scenario_from_dict(missing)

    flat = dict(record)
    flat["sorption"] = "none"
    with pytest.raises(ValidationError, match="sorption"):
        scenario_from_dict(flat)

    extra = dict(record)
    extra["bogus"] = 1
    with pytest.raises(ValidationError, match="unknown scenario keys: bogus"):
        scenario_from_dict(extra)


def test_metadata_round_trip(tmp_path):
    path = tmp_path / "metadata.json"
    config = get_scenario("s3")
    write_metadata(path, config, command="simulate", noise_delta=0.05)

    record = json.loads(path.read_text())
    assert record["command"] == "simulate"
    assert record["noise_delta"] == 0.05
    assert scenario_from_dict(record["scenario_config"]) == config
    assert path.read_text().endswith("\n")


# ----------------------------------------------------------- runs CSV

def test_runs_csv_round_trip(adf_runs, tmp_path):
    path = tmp_path / "runs.csv"
    write_runs_csv(adf_runs, path)

    header = path.read_text().splitlines()[0]
    assert header == ("run_id,n_iterations,termination,eps_final,"
                      "m_a,"
                      "alpha_norm_adv,alpha_norm_dis,alpha_norm_fsorp,"
                      "alpha_phys_adv,alpha_phys_dis,alpha_phys_fsorp")

    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(adf_runs)
    for rec, res in zip(rows, adf_runs):
        assert rec["run_id"] == str(res.run_id)
        assert rec["n_iterations"] == str(res.trace.n_accepted)
        assert rec["termination"] == res.trace.status
        assert float(rec["eps_final"]) == res.fit.eps
        assert float(rec["m_a"]) == res.trace.m_final.values[0]
        for j, tid in enumerate(res.fit.alpha_norm.term_ids):
            assert float(rec[f"alpha_norm_{tid}"]) == res.fit.alpha_norm.values[j]
            assert float(rec[f"alpha_phys_{tid}"]) == res.fit.alpha_phys.values[j]


def test_runs_csv_guards(tmp_path):
    with pytest.raises(ValidationError, match="no runs"):
        write_runs_csv([], tmp_path / "empty.csv")


# repr round-trips every float but NaN; ModelParams holds finite values.
_ANY_FLOAT = st.floats(allow_nan=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_STATUSES = ("converged", "stalled", "zero_gradient", "max_iterations")


@st.composite
def run_tables(draw):
    """Restarts as ``write_runs_csv`` reads them, with arbitrary values."""
    names = draw(st.sampled_from([(), ("a",), ("K_l",), ("a", "K_l")]))
    term_ids = tuple(draw(st.lists(st.sampled_from(("adv", "dis", "fsorp",
                                                    "lsorp", "conc")),
                                   min_size=1, unique=True)))
    runs = []
    for run_id in range(draw(st.integers(1, 4))):
        trace = SimpleNamespace(
            n_accepted=draw(st.integers(1, 400)),
            status=draw(st.sampled_from(_STATUSES)),
            m_final=ModelParams(names, tuple(draw(_FINITE) for _ in names)))
        coefficients = [tuple(draw(_ANY_FLOAT) for _ in term_ids)
                        for _ in range(2)]
        fit = SimpleNamespace(
            eps=draw(_ANY_FLOAT),
            alpha_norm=SimpleNamespace(term_ids=term_ids,
                                       values=coefficients[0]),
            alpha_phys=SimpleNamespace(values=coefficients[1]))
        runs.append(SimpleNamespace(run_id=run_id, trace=trace, fit=fit))
    return runs


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(runs=run_tables())
def test_runs_csv_round_trip_property(tmp_path, runs):
    """Every cell reads back as its exact value (signed zeros and
    infinities included), in the written column order."""
    path = tmp_path / "runs.csv"
    write_runs_csv(runs, path)
    header, *rows = csv_rows(path)
    for row, res in zip(rows, runs, strict=True):
        expected = {"run_id": res.run_id, "n_iterations": res.trace.n_accepted,
                    "termination": res.trace.status,
                    "eps_final": res.fit.eps}
        expected.update(zip((f"m_{n}" for n in res.trace.m_final.names),
                            res.trace.m_final.values))
        for kind in ("alpha_norm", "alpha_phys"):
            expected.update(zip((f"{kind}_{t}" for t in res.fit.alpha_norm.term_ids),
                                getattr(res.fit, kind).values))
        assert header == list(expected)
        assert [repr(type(v)(cell)) for cell, v in
                zip(row, expected.values(), strict=True)] == [
            repr(v) for v in expected.values()]


def test_trace_csv_layout(adf_runs, tmp_path):
    result = adf_runs[0]
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)

    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,accepted,lambda,eps,m_a"
    assert len(lines) == 1 + len(result.trace.records)

    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    rec = result.trace.records[2]
    cells = lines[3].split(",")
    assert cells[0] == "2"
    assert cells[1] == ("1" if rec.accepted else "0")
    assert float(cells[2]) == rec.lam
    assert float(cells[3]) == rec.eps
    assert float(cells[4]) == rec.m.values[0]


# -------------------------------------------------------- summary JSON

def test_summary_json_round_trip(adf_report, tmp_path):
    report = adf_report
    path = tmp_path / "summary.json"
    write_summary_json(report, path)

    record = read_summary_json(path)
    assert record["scenario"] == "manufactured"
    assert record["library"] == report.library_name
    assert record["noise_delta"] == 0.0
    assert record["noise_seed"] is None
    assert record["winner"] == report.winner_name
    assert record["selected_terms"] == list(report.selected_term_ids)
    assert record["stable"] is True
    assert record["equation"] == report.equation
    assert "smoothing_passes" not in record
    assert record["n_points"] == report.data.n_points

    summary = report.final_summary
    assert [t["id"] for t in record["terms"]] == list(summary.term_ids)
    for j, term in enumerate(record["terms"]):
        assert term["alpha_phys_mean"] == float(summary.alpha_phys_mean[j])
        assert term["alpha_norm_std"] == float(summary.alpha_norm_std[j])
    assert [p["name"] for p in record["params"]] == ["a"]
    assert record["runs"]["total"] == summary.n_runs
    assert [c["name"] for c in record["candidates"]] == ["none", "fsorp", "lsorp"]

    again = tmp_path / "again.json"
    write_summary_json(report, again)
    assert path.read_bytes() == again.read_bytes()


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data(),
       noise=st.one_of(st.none(),
                       st.builds(NoiseSpec, delta=st.floats(0.0, 0.99),
                                 seed=st.integers(0, 2**32))),
       failure=st.one_of(st.none(), st.text()))
def test_summary_json_round_trip_property(adf_report, tmp_path, draw, noise,
                                          failure):
    """``read_summary_json`` returns exactly ``summary_dict``'s digest, for
    arbitrary ensemble statistics, with or without noise and a failed
    candidate."""
    report = adf_report
    summary = report.final_summary
    k, p = len(summary.term_ids), len(summary.param_names)

    def floats(size):
        return np.array(draw.draw(st.lists(_ANY_FLOAT, min_size=size,
                                           max_size=size)))

    arrays = {name: floats(k) for name in (
        "alpha_phys_mean", "alpha_phys_std", "alpha_norm_mean",
        "alpha_norm_std", "alpha_abs_norm_mean")}
    arrays.update(param_mean=floats(p), param_std=floats(p))
    last = dataclasses.replace(report.rounds[-1],
                               summary=dataclasses.replace(summary, **arrays))
    failed = ([] if failure is None
              else [FailedCandidate("lsorp", ("adv", "lsorp"), failure)])
    data = dataclasses.replace(report.data, noise=noise)
    changed = dataclasses.replace(report, rounds=report.rounds[:-1] + [last],
                                  data=data, failed_candidates=failed)
    path = tmp_path / "summary.json"
    write_summary_json(changed, path)
    back = read_summary_json(path)
    expected = summary_dict(changed)
    assert back == expected
    # Signed zeros, and ints against floats.
    assert json.dumps(back, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_summary_json_reader_guards(adf_report, tmp_path):
    partial = dict(summary_dict(adf_report))
    del partial["equation"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial))
    with pytest.raises(ValidationError, match="equation"):
        read_summary_json(path)

    garbled = tmp_path / "garbled.json"
    garbled.write_text("[1, 2")
    with pytest.raises(ValidationError):
        read_summary_json(garbled)


def test_least_summary_record_tabulates(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary_record()))
    [row] = report_table([read_summary_json(path)])
    assert row == {"scenario": "s2", "noise_delta": 0.0, "adv": -0.01,
                   "a": 0.7, "equation": "dC/dt = -0.01 dC/dx"}


@pytest.mark.parametrize("name", sorted(MALFORMED_SUMMARIES))
def test_summary_json_reader_rejects_malformed_records(tmp_path, name):
    path = tmp_path / "summary.json"
    path.write_text(MALFORMED_SUMMARIES[name])
    with pytest.raises(ValidationError, match=re.escape(str(path))):
        read_summary_json(path)


def test_summary_json_reader_names_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "summary.json"
    path.write_bytes(b'{"scenario":\n "s\xff2"}\n')
    with pytest.raises(ValidationError,
                       match=re.escape(f"{path}:2: not UTF-8")):
        read_summary_json(path)


def test_report_table_single_summary(adf_report):
    report = adf_report
    rows = report_table([summary_dict(report)])
    assert len(rows) == 1
    row = rows[0]
    assert row["scenario"] == "manufactured"
    assert row["noise_delta"] == 0.0
    summary = report.final_summary
    for j, tid in enumerate(summary.term_ids):
        assert row[tid] == float(summary.alpha_phys_mean[j])
    assert row["a"] == float(summary.param_mean[0])
    assert row["equation"] == report.equation


def test_summaries_carry_only_the_parameters_read(pipeline):
    """s1 ends parameter-free, s2 on Freundlich and s3 on Langmuir: each
    summary lists only its final library's parameters, and the table
    leaves the others blank."""
    records = [summary_dict(pipeline.report(name))
               for name in ("s1", "s2", "s3")]
    assert [[p["name"] for p in rec["params"]] for rec in records] == [
        [], ["a"], ["K_l"]]
    assert records[0]["runs"]["total"] == 1
    rows = report_table(records)
    assert [(row["a"], row["K_l"]) for row in rows] == [
        ("", ""),
        (records[1]["params"][0]["mean"], ""),
        ("", records[2]["params"][0]["mean"])]


def test_report_table_merges_term_columns():
    def fake(scenario, terms, params):
        return {"scenario": scenario, "noise_delta": 0.0,
                "terms": [{"id": tid, "alpha_phys_mean": val}
                          for tid, val in terms],
                "params": [{"name": n, "mean": v} for n, v in params],
                "equation": "dC/dt = ..."}

    rows = report_table([
        fake("one", [("adv", -0.01), ("dis", 0.01)], [("a", 0.6)]),
        fake("two", [("adv", -0.05), ("lsorp", -1.2)], [("K_l", 90.0)]),
    ])
    assert rows[0]["lsorp"] == "" and rows[0]["K_l"] == ""
    assert rows[1]["dis"] == "" and rows[1]["a"] == ""
    assert rows[0]["adv"] == -0.01 and rows[1]["adv"] == -0.05
    assert rows[1]["lsorp"] == -1.2
    assert list(rows[0]) == ["scenario", "noise_delta", "adv", "dis", "lsorp",
                             "a", "K_l", "equation"]

    with pytest.raises(ValidationError, match="no summaries"):
        report_table([])
