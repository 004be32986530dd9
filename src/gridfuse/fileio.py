"""File formats: JSON configs (versioned schema field) and one-header CSV data."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .engine import FilterConfig
from .estimation import Estimate
from .geometry import ReferencePoint
from .grid import GridSpec
from .metrics import StatsSummary
from .noise import GaussianModel, GmmModel, MixtureLikelihoodModel, UniformModel
from .observations import (LOS, NLOS, Angle, GnssPseudoranges, Observation,
                           Odometry, Range, RangeDifference, SatelliteObservation)
from .simulator import (GnssNoiseConfig, GroundTruth, OdometryNoiseConfig,
                        SatelliteSpec, Scenario, Trajectory, UwbNoiseConfig)
from .update import BssdRouting

SCENARIO_SCHEMA = "gridfuse-scenario-v1"
FILTER_SCHEMA = "gridfuse-filter-v1"
GMM_SCHEMA = "gridfuse-gmm-v1"

OBS_HEADER = ["t", "sensor", "type", "ref_ids", "v1", "v2", "v3", "v4", "v5"]


class DataFormatError(ValueError):
    """Malformed config or data file."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------- models <-> JSON

# One JSON tag per density model; fields are written in dataclass order and
# nested models (the parts of a mixture) recurse.
_MODEL_CLASSES = {"gaussian": GaussianModel, "uniform": UniformModel,
                  "gmm": GmmModel, "mixture": MixtureLikelihoodModel}
_MODEL_TAGS = {cls: tag for tag, cls in _MODEL_CLASSES.items()}


def model_to_json(model) -> dict:
    if type(model) not in _MODEL_TAGS:
        raise TypeError(f"unsupported model {type(model).__name__}")
    doc = {"type": _MODEL_TAGS[type(model)]}
    for f in fields(model):
        value = getattr(model, f.name)
        if type(value) in _MODEL_TAGS:
            value = model_to_json(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return doc


def model_from_json(doc: dict):
    try:
        kind = doc["type"]
        cls = _MODEL_CLASSES.get(kind)
        if cls is not None:
            args = []
            for f in fields(cls):
                value = doc[f.name]
                if isinstance(value, dict):
                    value = model_from_json(value)
                elif isinstance(value, list):
                    value = tuple(value)
                args.append(value)
            return cls(*args)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad model document: {exc}") from exc
    raise DataFormatError(f"unknown model type {kind!r}")


# ------------------------------------------------------------- grid / references

def grid_to_json(spec: GridSpec) -> dict:
    return {"origin": list(spec.origin), "cell_size": spec.cell_size,
            "extent": list(spec.extent), "plane_height": spec.plane_height}


def grid_from_json(doc: dict) -> GridSpec:
    try:
        return GridSpec(tuple(doc["origin"]), doc["cell_size"],
                        tuple(doc["extent"]), doc.get("plane_height", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad grid document: {exc}") from exc


def _anchor_to_json(a: ReferencePoint) -> dict:
    return {"id": a.id, "position": list(a.position)}


def _anchor_from_json(doc: dict) -> ReferencePoint:
    return ReferencePoint(doc["id"], tuple(doc["position"]), kind="anchor")


# ------------------------------------------------------------- scenario configs

def scenario_to_json(s: Scenario) -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "grid": grid_to_json(s.grid),
        "anchors": [_anchor_to_json(a) for a in s.anchors],
        "satellites": [{"id": sat.id, "position": list(sat.position),
                        "visibility": list(sat.visibility)}
                       for sat in s.satellites],
        "trajectory": {"kind": s.trajectory.kind,
                       "position": list(s.trajectory.position),
                       "center": list(s.trajectory.center),
                       "radius": s.trajectory.radius,
                       "speed": s.trajectory.speed,
                       "height": s.trajectory.height},
        "duration": s.duration,
        "rates": {"gnss": s.gnss_rate, "uwb": s.uwb_rate,
                  "odometry": s.odometry_rate},
        "uwb_noise": {"mean": s.uwb_noise.mean, "std": s.uwb_noise.std,
                      "outlier_rate": s.uwb_noise.outlier_rate,
                      "outlier_low": s.uwb_noise.outlier_low,
                      "outlier_high": s.uwb_noise.outlier_high,
                      "anchors_per_epoch": s.uwb_noise.anchors_per_epoch},
        "gnss_noise": {"sigma_pseudorange": s.gnss_noise.sigma_pseudorange,
                       "nlos_bias_mean": s.gnss_noise.nlos_bias_mean},
        "odometry_noise": {"sigma_speed": s.odometry_noise.sigma_speed,
                           "sigma_heading": s.odometry_noise.sigma_heading},
        "seed": s.seed,
    }


def scenario_from_json(doc: dict) -> Scenario:
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise DataFormatError(
            f"expected schema {SCENARIO_SCHEMA!r}, got {doc.get('schema')!r}")
    try:
        traj = doc["trajectory"]
        rates = doc["rates"]
        return Scenario(
            grid=grid_from_json(doc["grid"]),
            anchors=tuple(_anchor_from_json(a) for a in doc["anchors"]),
            satellites=tuple(
                SatelliteSpec(s["id"], tuple(s["position"]),
                              tuple(bool(v) for v in s.get("visibility", [True])))
                for s in doc["satellites"]),
            trajectory=Trajectory(
                traj["kind"], tuple(traj.get("position", (0.0, 0.0, 0.0))),
                tuple(traj.get("center", (0.0, 0.0))),
                traj.get("radius", 25.0), traj.get("speed", 5.0),
                traj.get("height", 0.0)),
            duration=doc["duration"],
            gnss_rate=rates["gnss"], uwb_rate=rates["uwb"],
            odometry_rate=rates["odometry"],
            uwb_noise=UwbNoiseConfig(**doc.get("uwb_noise", {})),
            gnss_noise=GnssNoiseConfig(**doc.get("gnss_noise", {})),
            odometry_noise=OdometryNoiseConfig(**doc.get("odometry_noise", {})),
            seed=doc.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad scenario config: {exc}") from exc


# --------------------------------------------------------------- filter configs

def filter_config_to_json(cfg: FilterConfig, grid: GridSpec,
                          anchors) -> dict:
    return {
        "schema": FILTER_SCHEMA,
        "grid": grid_to_json(grid),
        "anchors": [_anchor_to_json(a) for a in anchors],
        "combine_mode": cfg.combine_mode,
        "estimate_radius": cfg.estimate_radius,
        "sigma_speed": cfg.sigma_speed,
        "sigma_heading": cfg.sigma_heading,
        "sigma_rw": cfg.sigma_rw,
        "max_gap": cfg.max_gap,
        "recenter_enabled": cfg.recenter_enabled,
        "range_model": model_to_json(cfg.range_model),
        "tdoa_model": model_to_json(cfg.tdoa_model),
        "aoa_model": model_to_json(cfg.aoa_model),
        # routing keeps single Gaussians; weights are irrelevant to case
        # selection, so nominal values are stored
        "bssd_gmm": model_to_json(GmmModel(
            (0.34, 0.33, 0.33),
            tuple(m.mean for m in (cfg.bssd_routing.los_los,
                                   cfg.bssd_routing.nlos_los,
                                   cfg.bssd_routing.los_nlos)),
            tuple(m.std ** 2 for m in (cfg.bssd_routing.los_los,
                                       cfg.bssd_routing.nlos_los,
                                       cfg.bssd_routing.los_nlos)))),
    }


def filter_config_from_json(doc: dict):
    """Returns (FilterConfig, GridSpec, anchors)."""
    if doc.get("schema") != FILTER_SCHEMA:
        raise DataFormatError(
            f"expected schema {FILTER_SCHEMA!r}, got {doc.get('schema')!r}")
    try:
        grid = grid_from_json(doc["grid"])
        anchors = tuple(_anchor_from_json(a) for a in doc["anchors"])
        gmm = model_from_json(doc["bssd_gmm"])
        cfg = FilterConfig(
            combine_mode=doc.get("combine_mode", "sum"),
            estimate_radius=doc.get("estimate_radius"),
            sigma_speed=doc.get("sigma_speed", 0.5),
            sigma_heading=doc.get("sigma_heading", 0.2),
            sigma_rw=doc.get("sigma_rw", 1.0),
            max_gap=doc.get("max_gap", 10.0),
            recenter_enabled=doc.get("recenter_enabled", True),
            range_model=model_from_json(doc["range_model"]),
            tdoa_model=model_from_json(doc["tdoa_model"]),
            aoa_model=model_from_json(doc["aoa_model"]),
            bssd_routing=BssdRouting.from_gmm(gmm),
        )
        return cfg, grid, anchors
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad filter config: {exc}") from exc


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


def dump_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------ observations CSV

def _obs_rows(events):
    for obs in events:
        p = obs.payload
        t = _fmt(obs.timestamp)
        if isinstance(p, Range):
            yield [t, "uwb", "range", p.anchor_id, _fmt(p.value), "", "", "", ""]
        elif isinstance(p, RangeDifference):
            yield [t, "uwb", "tdoa", f"{p.ref_a_id}|{p.ref_b_id}",
                   _fmt(p.value), "", "", "", ""]
        elif isinstance(p, Angle):
            yield [t, "uwb", "aoa", p.anchor_id, _fmt(p.value), "", "", "", ""]
        elif isinstance(p, GnssPseudoranges):
            for s in p.satellites:
                yield [t, "gnss", "gnss", s.sat_id, _fmt(s.pseudorange),
                       _fmt(s.position[0]), _fmt(s.position[1]),
                       _fmt(s.position[2]), "1" if s.visibility == LOS else "0"]
        elif isinstance(p, Odometry):
            yield [t, "odo", "odo", "", _fmt(p.speed), _fmt(p.heading), "", "", ""]
        else:
            raise TypeError(f"unsupported payload {type(p).__name__}")


def write_observations(events, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBS_HEADER)
        writer.writerows(_obs_rows(events))


def read_observations(path) -> list[Observation]:
    events: list[Observation] = []
    gnss_group: list[SatelliteObservation] = []
    gnss_t: float | None = None

    def flush_gnss():
        nonlocal gnss_group, gnss_t
        if gnss_group:
            events.append(Observation(gnss_t, GnssPseudoranges(tuple(gnss_group))))
            gnss_group = []
            gnss_t = None

    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != OBS_HEADER:
                raise DataFormatError(f"{path}: unexpected header {header}")
            for row in reader:
                t = float(row[0])
                kind = row[2]
                if kind != "gnss":
                    flush_gnss()
                if kind == "range":
                    events.append(Observation(t, Range(row[3], float(row[4]))))
                elif kind == "tdoa":
                    a, b = row[3].split("|")
                    events.append(Observation(t, RangeDifference(a, b, float(row[4]))))
                elif kind == "aoa":
                    events.append(Observation(t, Angle(row[3], float(row[4]))))
                elif kind == "odo":
                    events.append(Observation(t, Odometry(float(row[4]),
                                                          float(row[5]))))
                elif kind == "gnss":
                    if gnss_t is not None and t != gnss_t:
                        flush_gnss()
                    gnss_t = t
                    gnss_group.append(SatelliteObservation(
                        row[3], (float(row[5]), float(row[6]), float(row[7])),
                        float(row[4]), LOS if row[8] == "1" else NLOS))
                else:
                    raise DataFormatError(f"{path}: unknown observation type {kind!r}")
            flush_gnss()
    except (ValueError, IndexError) as exc:
        if isinstance(exc, DataFormatError):
            raise
        raise DataFormatError(f"{path}: malformed row: {exc}") from exc
    return events


# ------------------------------------------------------- truth / estimates CSV

def write_ground_truth(truth: GroundTruth, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "z"])
        for t, pos in zip(truth.times, truth.positions):
            writer.writerow([_fmt(t)] + [_fmt(v) for v in pos])


def read_ground_truth(path) -> GroundTruth:
    times, positions = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "x", "y", "z"]:
            raise DataFormatError(f"{path}: unexpected header {header}")
        for row in reader:
            try:
                times.append(float(row[0]))
                positions.append([float(v) for v in row[1:4]])
            except (ValueError, IndexError) as exc:
                raise DataFormatError(f"{path}: malformed row: {exc}") from exc
    return GroundTruth(np.asarray(times), np.asarray(positions))


ESTIMATE_HEADER = ["t", "x", "y", "z", "map_cell", "map_mass", "wm_radius",
                   "support_count"]


def write_estimates(estimates: list[Estimate], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ESTIMATE_HEADER)
        for e in estimates:
            writer.writerow([_fmt(e.timestamp), _fmt(e.position[0]),
                             _fmt(e.position[1]), _fmt(e.position[2]),
                             str(e.map_cell), _fmt(e.map_mass),
                             "inf" if math.isinf(e.wm_radius) else _fmt(e.wm_radius),
                             str(e.support_count)])


def read_estimates(path) -> list[Estimate]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ESTIMATE_HEADER:
            raise DataFormatError(f"{path}: unexpected header {header}")
        for row in reader:
            try:
                out.append(Estimate(float(row[0]),
                                    (float(row[1]), float(row[2]), float(row[3])),
                                    int(row[4]), float(row[5]), float(row[6]),
                                    int(row[7])))
            except (ValueError, IndexError) as exc:
                raise DataFormatError(f"{path}: malformed row: {exc}") from exc
    return out


# ------------------------------------------------------------- stats / ECDF CSV

def write_stats(summaries: dict[str, StatsSummary], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "mean", "median", "variance",
                         "q_sigma", "q_2sigma", "q_3sigma",
                         "p25", "p50", "p75", "count"])
        for name, s in summaries.items():
            writer.writerow([name, _fmt(s.mean), _fmt(s.median), _fmt(s.variance)]
                            + [_fmt(q) for q in s.quantiles]
                            + [_fmt(p) for p in s.percentiles]
                            + [str(s.count)])


def write_ecdf(curves: dict[str, tuple[np.ndarray, np.ndarray]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "error", "cdf"])
        for name, (x, f) in curves.items():
            for xv, fv in zip(x, f):
                writer.writerow([name, _fmt(xv), _fmt(fv)])


def write_gmm(model: GmmModel, path) -> None:
    dump_json({"schema": GMM_SCHEMA, **model_to_json(model)}, path)


def read_gmm(path) -> GmmModel:
    doc = load_json(path)
    if doc.get("schema") != GMM_SCHEMA:
        raise DataFormatError(
            f"expected schema {GMM_SCHEMA!r}, got {doc.get('schema')!r}")
    if doc.get("type") != _MODEL_TAGS[GmmModel]:
        raise DataFormatError("GMM file does not contain a gmm model")
    return model_from_json({k: v for k, v in doc.items() if k != "schema"})


def read_residuals(path) -> np.ndarray:
    """Single-column CSV (header 'residual') of scalar residuals."""
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["residual"]:
            raise DataFormatError(f"{path}: unexpected header {header}")
        for row in reader:
            try:
                values.append(float(row[0]))
            except (ValueError, IndexError) as exc:
                raise DataFormatError(f"{path}: malformed row: {exc}") from exc
    return np.asarray(values)


def write_residuals(values, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["residual"])
        for v in np.asarray(values).ravel():
            writer.writerow([_fmt(v)])
