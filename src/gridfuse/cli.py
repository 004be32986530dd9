"""Command line surface: simulate, filter, evaluate, calibrate, demo."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import fileio, update
from .engine import FilterConfig, FusionEngine
from .metrics import ecdf, error_series, summarize
from .noise import CalibrationFailureError, fit_gmm
from .simulator import generate, make_dynamic_scenario, make_static_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

log = logging.getLogger("gridfuse")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _setup_logging() -> None:
    level = os.environ.get("GRIDFUSE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridfuse",
                     description="Grid-based hybrid GNSS/terrestrial fusion filter")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="scenario config -> observation + truth files")
    p_sim.add_argument("--config", required=True, help="scenario JSON")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override scenario seed")

    p_fil = sub.add_parser("filter", help="observations + filter config -> estimates CSV")
    p_fil.add_argument("--config", required=True, help="filter JSON")
    p_fil.add_argument("--observations", required=True)
    p_fil.add_argument("--out", required=True)
    p_fil.add_argument("--combine", choices=[update.SUM, update.PRODUCT], default=None)
    p_fil.add_argument("--radius", type=float, default=None,
                       help="weighted-mean radius, meters")

    p_eval = sub.add_parser("evaluate", help="estimates + truth -> stats + ECDF CSV")
    p_eval.add_argument("--estimates", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--name", default="run", help="scenario label in the output")

    p_cal = sub.add_parser("calibrate", help="residuals file -> fitted GMM parameters")
    p_cal.add_argument("--residuals", required=True)
    p_cal.add_argument("--components", type=int, default=4)
    p_cal.add_argument("--out", required=True, help="output JSON path")
    p_cal.add_argument("--seed", type=int, default=0)

    p_demo = sub.add_parser("demo", help="end-to-end static + dynamic run with defaults")
    p_demo.add_argument("--out", required=True)
    p_demo.add_argument("--seed", type=int, default=42)
    p_demo.add_argument("--grid-res", type=float, default=0.5, help="cell size, meters")
    p_demo.add_argument("--combine", choices=[update.SUM, update.PRODUCT],
                        default=update.SUM)
    p_demo.add_argument("--radius", type=float, default=None)
    return parser


# Each command computes everything it writes before it creates --out, so a
# run that fails leaves no output directory behind.

def _cmd_simulate(args) -> int:
    scenario = fileio.scenario_from_json(fileio.load_json(args.config))
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    events, truth = generate(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_observations(events, out / "observations.csv")
    fileio.write_ground_truth(truth, out / "truth.csv")
    log.info("wrote %d events to %s", len(events), out)
    return EXIT_OK


def _cmd_filter(args) -> int:
    cfg, grid, anchors = fileio.filter_config_from_json(fileio.load_json(args.config))
    if args.combine:
        cfg = replace(cfg, combine_mode=args.combine)
    if args.radius is not None:
        cfg = replace(cfg, estimate_radius=args.radius)
    events = fileio.read_observations(args.observations)
    engine = FusionEngine(grid, anchors, cfg)
    estimates = engine.run(events)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_estimates(estimates, out / "estimates.csv")
    log.info("processed %d events -> %d estimates (%d rejected)",
             len(events), len(estimates), len(engine.rejected))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    estimates = fileio.read_estimates(args.estimates)
    truth = fileio.read_ground_truth(args.truth)
    series = error_series(estimates, truth)
    stats = {args.name: summarize(series)}
    curves = {args.name: ecdf(series)}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_stats(stats, out / "stats.csv")
    fileio.write_ecdf(curves, out / "ecdf.csv")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    residuals = fileio.read_residuals(args.residuals)
    model = fit_gmm(residuals, args.components, seed=args.seed)
    fileio.write_gmm(model, args.out)
    return EXIT_OK


def _cmd_demo(args) -> int:
    cfg = FilterConfig(combine_mode=args.combine, estimate_radius=args.radius)
    scenarios = {
        "static": make_static_scenario(n_epochs=60, cell_size=args.grid_res,
                                       seed=args.seed),
        "dynamic": make_dynamic_scenario(n_gnss_epochs=40, cell_size=args.grid_res,
                                         seed=args.seed + 1),
    }
    runs = {}
    summaries = {}
    curves = {}
    for name, scenario in scenarios.items():
        events, truth = generate(scenario)
        estimates = FusionEngine(scenario.grid, scenario.anchors, cfg).run(events)
        runs[name] = events, truth, estimates
        series = error_series(estimates, truth)
        summaries[name] = summarize(series)
        curves[name] = ecdf(series)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (events, truth, estimates) in runs.items():
        fileio.write_observations(events, out / f"{name}_observations.csv")
        fileio.write_ground_truth(truth, out / f"{name}_truth.csv")
        fileio.dump_json(fileio.scenario_to_json(scenarios[name]),
                         out / f"{name}_scenario.json")
        fileio.write_estimates(estimates, out / f"{name}_estimates.csv")
    fileio.dump_json(fileio.filter_config_to_json(
        cfg, scenarios["static"].grid, scenarios["static"].anchors), out / "filter.json")
    fileio.write_stats(summaries, out / "stats.csv")
    fileio.write_ecdf(curves, out / "ecdf.csv")
    for name, s in summaries.items():
        print(f"{name}: mean={s.mean:.3f} m median={s.median:.3f} m n={s.count}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "filter": _cmd_filter,
    "evaluate": _cmd_evaluate,
    "calibrate": _cmd_calibrate,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (fileio.DataFormatError, CalibrationFailureError, FileNotFoundError,
            IsADirectoryError, PermissionError, ValueError, KeyError) as exc:
        print(f"gridfuse: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
