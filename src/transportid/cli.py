"""Command-line driver: simulate scenarios, identify equations, tabulate.

Configuration comes from an optional JSON file plus flag overrides; the
parsed form serializes back to the same JSON.  Exit codes: 0 success,
2 invalid configuration or input, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import TransportIdError, ValidationError, check_numbers, from_record
from .identification import IdentifyConfig, identify, prepare_dataset
from .library import library_names
from .params import ParamBounds
from .preprocess import NoiseSpec, SmoothingConfig, add_noise
from .persist import (read_json_object, read_summary_json, report_table,
                      scenario_from_dict, write_field_csv, write_metadata,
                      write_runs_csv, write_summary_json, write_trace_csv)
from .scenarios import get_scenario, scenario_names
from .transport import sample_measurements, simulate

__all__ = ["ExperimentConfig", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment.  Its JSON blocks are
    built, and so checked, here; ``to_dict`` gives them back as given."""

    scenario: str = "s1"
    library: str = "basic"
    noise_delta: float = 0.0
    noise_seed: int = 0
    n_restarts: int = 20
    master_seed: int = 0
    output_dir: str = "out"
    custom_scenario: dict | None = None
    bounds: dict | None = None
    smoothing: dict | None = None

    def __post_init__(self) -> None:
        check_numbers(self)
        problems = []
        if self.scenario != "custom" and self.scenario not in scenario_names():
            problems.append(f"scenario={self.scenario!r}")
        if self.scenario == "custom" and not self.custom_scenario:
            problems.append("custom_scenario (required when scenario=custom)")
        if self.library not in library_names():
            problems.append(f"library={self.library!r}")
        if not 0.0 <= self.noise_delta < 1.0:
            problems.append(f"noise_delta={self.noise_delta}")
        if self.noise_seed < 0:
            problems.append(f"noise_seed={self.noise_seed}")
        if self.n_restarts < 1:
            problems.append(f"n_restarts={self.n_restarts}")
        if problems:
            raise ValidationError("invalid config keys: " + ", ".join(problems))
        custom = (None if self.custom_scenario is None
                  else scenario_from_dict(self.custom_scenario))
        blocks = {block: from_record(cls, getattr(self, block), block)
                  for block, cls in (("bounds", ParamBounds),
                                     ("smoothing", SmoothingConfig))
                  if getattr(self, block) is not None}
        built = IdentifyConfig(n_restarts=self.n_restarts,
                               master_seed=self.master_seed, **blocks)
        object.__setattr__(self, "_custom", custom)
        object.__setattr__(self, "_identify", built)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return from_record(cls, data, "config")

    def to_dict(self) -> dict:
        return asdict(self)

    def scenario_config(self):
        if self.scenario == "custom":
            return self._custom
        return get_scenario(self.scenario)

    def noise_spec(self) -> NoiseSpec | None:
        if self.noise_delta == 0.0:
            return None
        return NoiseSpec(delta=self.noise_delta, seed=self.noise_seed)

    def identify_config(self) -> IdentifyConfig:
        return self._identify


def _load_config(args) -> ExperimentConfig:
    data = {} if args.config is None else read_json_object(args.config)
    overrides = {
        "scenario": args.scenario,
        "library": getattr(args, "library", None),
        "noise_delta": args.noise,
        "noise_seed": args.noise_seed,
        "n_restarts": getattr(args, "restarts", None),
        "master_seed": args.seed,
        "output_dir": args.out,
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return ExperimentConfig.from_dict(data)


def _ensure_outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _ensure_outdir(cfg)
    scen = cfg.scenario_config()
    noise = cfg.noise_spec()
    sim, _ = simulate(scen)
    clean = sample_measurements(sim, scen)
    write_field_csv(clean, out / "measurements_clean.csv")
    written = ["measurements_clean.csv"]
    if noise is not None:
        noisy = add_noise(sim, noise)
        write_field_csv(noisy, out / "measurements_noisy.csv")
        written.append("measurements_noisy.csv")
    write_metadata(out / "metadata.json", scen,
                   experiment=cfg.to_dict(), files=written)
    print(f"wrote {', '.join(written + ['metadata.json'])} to {out}")
    return EXIT_OK


def cmd_identify(args) -> int:
    cfg = _load_config(args)
    out = _ensure_outdir(cfg)
    scen = cfg.scenario_config()
    noise = cfg.noise_spec()
    id_cfg = cfg.identify_config()
    data = prepare_dataset(scen, cfg.scenario, noise=noise,
                           smoothing=id_cfg.smoothing,
                           split_ratio=id_cfg.split_ratio)
    report = identify(scen if cfg.scenario == "custom" else cfg.scenario,
                      cfg.library, noise=noise, cfg=id_cfg, data=data)
    write_runs_csv(report.final_results, out / "runs.csv")
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    for res in report.final_results:
        write_trace_csv(res, trace_dir / f"run_{res.run_id:03d}.csv")
    write_summary_json(report, out / "summary.json")
    write_metadata(out / "metadata.json", scen, experiment=cfg.to_dict())
    for failed in report.failed_candidates:
        print(f"candidate {failed.name} failed: {failed.error}")
    print(f"selected terms: {', '.join(report.selected_term_ids)}")
    print(report.equation)
    print(f"wrote runs.csv, summary.json, {len(report.final_results)} traces to {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = report_table([read_summary_json(p) for p in args.summaries])
    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        fh = out_path.open("w", newline="")
    else:
        fh = sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, with_identify: bool) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--scenario", choices=scenario_names() + ("custom",),
                        help="scenario preset")
    parser.add_argument("--noise", type=float, dest="noise",
                        help="relative noise amplitude delta")
    parser.add_argument("--noise-seed", type=int, dest="noise_seed",
                        help="seed of the noise draw")
    parser.add_argument("--seed", type=int, help="master seed for restarts")
    parser.add_argument("--out", help="output directory")
    if with_identify:
        parser.add_argument("--library", choices=library_names())
        parser.add_argument("--restarts", type=int, help="ensemble size")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transportid",
        description="Identify 1-D solute transport equations from "
                    "concentration measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and dump fields")
    _add_common(p_sim, with_identify=False)
    p_sim.set_defaults(func=cmd_simulate)

    p_id = sub.add_parser("identify", help="run the identification pipeline")
    _add_common(p_id, with_identify=True)
    p_id.set_defaults(func=cmd_identify)

    p_rep = sub.add_parser("report", help="tabulate summary files")
    p_rep.add_argument("summaries", nargs="+", help="summary.json files")
    p_rep.add_argument("--out", help="write the table to this CSV file")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TransportIdError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
