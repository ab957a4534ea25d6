"""File formats for measurement fields, run tables, and summaries.

All floats are written with ``repr``, which round-trips exactly, so a
rerun with the same configuration produces byte-identical files.  Only
two kinds of file are read back: JSON config files and, for ``report``,
``summary.json``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from pathlib import Path

from .errors import ValidationError, from_record
from .identification import IdentificationReport, RunResult
from .transport import Field, ScenarioConfig, SorptionModel

__all__ = [
    "write_field_csv",
    "write_metadata",
    "read_json_object",
    "scenario_to_dict",
    "scenario_from_dict",
    "write_runs_csv",
    "write_trace_csv",
    "summary_dict",
    "write_summary_json",
    "read_summary_json",
    "report_table",
]

def _fmt(value: float) -> str:
    return repr(float(value))


def _read_utf8(path: Path) -> io.StringIO:
    """``path`` as UTF-8 text; any other byte is an error naming its line."""
    data = path.read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: not UTF-8: {exc.reason}") from None


def write_field_csv(field: Field, path) -> None:
    """Dump a field row-major by time then space, full precision.

    The ``valid`` column carries the measurement mask; entries at or below
    the detection floor or outside the smoothing support are kept in the
    file (flag 0) so the grid stays rectangular.
    """
    path = Path(path)
    x = field.x
    t = field.t
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("x_cm", "t_s", "C_mg_per_l", "valid"))
        for k in range(field.n_t):
            for i in range(field.n_x):
                writer.writerow((_fmt(x[i]), _fmt(t[k]),
                                 _fmt(field.values[i, k]),
                                 "1" if field.mask[i, k] else "0"))


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return dataclasses.asdict(config)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a scenario, and its ``sorption`` block, from a JSON record."""
    if isinstance(data, dict) and "sorption" in data:
        sorption = from_record(SorptionModel, data["sorption"], "sorption")
        data = {**data, "sorption": sorption}
    return from_record(ScenarioConfig, data, "scenario")


def write_metadata(path, config: ScenarioConfig, **extra) -> None:
    record = {"scenario_config": scenario_to_dict(config)}
    record.update(extra)
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def read_json_object(path) -> dict:
    """The JSON object in ``path``; anything else is a ``ValidationError``."""
    path = Path(path)
    try:
        record = json.load(_read_utf8(path))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if not isinstance(record, dict):
        raise ValidationError(f"{path}: not a JSON object")
    return record


def write_runs_csv(results: list, path) -> None:
    """One row per restart with its termination info and coefficients."""
    if not results:
        raise ValidationError("no runs to write")
    first: RunResult = results[0]
    param_names = first.trace.m_final.names
    term_ids = first.fit.alpha_norm.term_ids
    header = (["run_id", "n_iterations", "termination", "eps_final"]
              + [f"m_{n}" for n in param_names]
              + [f"alpha_norm_{t}" for t in term_ids]
              + [f"alpha_phys_{t}" for t in term_ids])
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for res in results:
            row = [str(res.run_id), str(res.trace.n_accepted), res.trace.status,
                   _fmt(res.fit.eps)]
            row += [_fmt(v) for v in res.trace.m_final.values]
            row += [_fmt(v) for v in res.fit.alpha_norm.values]
            row += [_fmt(v) for v in res.fit.alpha_phys.values]
            writer.writerow(row)


def write_trace_csv(result: RunResult, path) -> None:
    param_names = result.trace.m_final.names
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "accepted", "lambda", "eps"]
                        + [f"m_{n}" for n in param_names])
        for index, rec in enumerate(result.trace.records):
            writer.writerow([str(index), "1" if rec.accepted else "0",
                             _fmt(rec.lam), _fmt(rec.eps)]
                            + [_fmt(v) for v in rec.m.values])


def summary_dict(report: IdentificationReport) -> dict:
    """JSON-ready digest of one identification experiment."""
    s = report.final_summary
    data = report.data
    record = {
        "scenario": data.scenario_name,
        "library": report.library_name,
        "noise_delta": 0.0 if data.noise is None else data.noise.delta,
        "noise_seed": None if data.noise is None else data.noise.seed,
        "winner": report.winner_name,
        "selected_terms": list(report.selected_term_ids),
        "stable": report.stable,
        "n_rounds": len(report.rounds),
        "equation": report.equation,
        "terms": [
            {
                "id": tid,
                "alpha_phys_mean": float(s.alpha_phys_mean[j]),
                "alpha_phys_std": float(s.alpha_phys_std[j]),
                "alpha_norm_mean": float(s.alpha_norm_mean[j]),
                "alpha_norm_std": float(s.alpha_norm_std[j]),
                "alpha_abs_norm_mean": float(s.alpha_abs_norm_mean[j]),
            }
            for j, tid in enumerate(s.term_ids)
        ],
        "params": [
            {"name": name, "mean": float(s.param_mean[k]),
             "std": float(s.param_std[k])}
            for k, name in enumerate(s.param_names)
        ],
        "runs": {
            "total": s.n_runs,
            "retained": list(s.retained_run_ids),
            "screened": list(s.screened_run_ids),
            "failed": list(s.failed_run_ids),
        },
        "candidates": [
            {"name": c.name, "mean_eps": c.mean_eps,
             "term_ids": list(c.summary.term_ids)}
            for c in report.candidates
        ],
        "n_points": data.n_points,
    }
    if report.failed_candidates:
        record["failed_candidates"] = [
            {"name": f.name, "term_ids": list(f.term_ids), "error": f.error}
            for f in report.failed_candidates
        ]
    return record


def write_summary_json(report: IdentificationReport, path) -> None:
    record = summary_dict(report)
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


_SUMMARY_KEYS = ("scenario", "noise_delta", "selected_terms", "terms",
                 "params", "equation")


def read_summary_json(path) -> dict:
    record = read_json_object(path)
    missing = [k for k in _SUMMARY_KEYS if k not in record]
    if missing:
        raise ValidationError(f"{path}: summary missing keys {missing}")
    for key, label, value in (("terms", "id", "alpha_phys_mean"),
                              ("params", "name", "mean")):
        if not isinstance(record[key], list) or not all(
                isinstance(i, dict) and isinstance(i.get(label), str)
                and value in i for i in record[key]):
            raise ValidationError(f"{path}: {key} must list objects with a "
                                  f"string {label!r} and a {value!r}")
    return record


def report_table(summaries: list) -> list:
    """Rows of scenario x noise x coefficients x parameters.

    Input records come from ``read_summary_json``; the output is a list
    of row dicts sharing one header, with absent terms left empty.
    """
    if not summaries:
        raise ValidationError("no summaries to tabulate")
    term_order = list(dict.fromkeys(
        term["id"] for rec in summaries for term in rec["terms"]))
    param_order = list(dict.fromkeys(
        par["name"] for rec in summaries for par in rec["params"]))
    rows = []
    for rec in summaries:
        by_id = {t["id"]: t for t in rec["terms"]}
        by_name = {p["name"]: p for p in rec["params"]}
        row = {"scenario": rec["scenario"], "noise_delta": rec["noise_delta"]}
        for tid in term_order:
            term = by_id.get(tid)
            row[tid] = "" if term is None else term["alpha_phys_mean"]
        for name in param_order:
            par = by_name.get(name)
            row[name] = "" if par is None else par["mean"]
        row["equation"] = rec["equation"]
        rows.append(row)
    return rows
