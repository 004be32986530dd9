"""File formats: JSON configs (versioned schema field) and one-header CSV data.

Each format is declared once. A CSV format is a header constant plus a row
writer and a row parser, passed to ``_write_csv`` / ``_read_csv``. A JSON
reader passes only the keys a document holds to the dataclass it builds, so
every optional key takes its default from that class. Every JSON object has
one policy for keys it does not know: a ``DataFormatError`` naming them.
"""

from __future__ import annotations

import csv
import json
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
TRUTH_HEADER = ["t", "x", "y", "z"]
ESTIMATE_HEADER = ["t", "x", "y", "z", "map_cell", "map_mass", "wm_radius",
                   "support_count"]
STATS_HEADER = ["scenario", "mean", "median", "variance", "q_sigma", "q_2sigma",
                "q_3sigma", "p25", "p50", "p75", "count"]
ECDF_HEADER = ["scenario", "error", "cdf"]
RESIDUAL_HEADER = ["residual"]


class DataFormatError(ValueError):
    """Malformed config or data file."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ------------------------------------------------------------------- CSV tables

def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header: list[str], parse_rows):
    """``parse_rows`` applied to the data rows of a one-header CSV file.

    The first line must be exactly ``header``. ``parse_rows`` gets the row
    iterator, so readers that merge rows keep the same rule: a ValueError
    while parsing (a bad value, or a row whose field count differs from the
    header's) is a DataFormatError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise DataFormatError(f"{path}: unexpected header {found}")
        try:
            return parse_rows(reader)
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed row: {exc}") from exc


# ---------------------------------------------------------- models <-> JSON

# One JSON tag per density model; fields are written in dataclass order and
# nested models (the parts of a mixture) recurse.
_MODEL_CLASSES = {"gaussian": GaussianModel, "uniform": UniformModel,
                  "gmm": GmmModel, "mixture": MixtureLikelihoodModel}
_MODEL_TAGS = {cls: tag for tag, cls in _MODEL_CLASSES.items()}


def _fields_to_json(obj) -> dict:
    """Dataclass fields in order; tuples become lists, density models recurse."""
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if type(value) in _MODEL_TAGS:
            value = model_to_json(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return doc


def model_to_json(model) -> dict:
    if type(model) not in _MODEL_TAGS:
        raise TypeError(f"unsupported model {type(model).__name__}")
    return {"type": _MODEL_TAGS[type(model)], **_fields_to_json(model)}


def model_from_json(doc: dict):
    try:
        kind = doc["type"]
        cls = _MODEL_CLASSES.get(kind)
        if cls is not None:
            _check_keys(doc, ["type", *(f.name for f in fields(cls))], f"{kind} model")
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


# ----------------------------------------------------------- JSON documents

def _check_keys(doc: dict, known, what: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise DataFormatError(f"{what}: unknown key(s) {', '.join(map(repr, unknown))}")


def _build(cls, doc: dict, **convert):
    """``cls`` from ``doc``, whose keys must name fields of ``cls``; each value
    passes through ``convert[key]`` if given. Absent keys take the dataclass
    defaults."""
    _check_keys(doc, [f.name for f in fields(cls)], cls.__name__)
    return cls(**{k: convert[k](v) if k in convert else v for k, v in doc.items()})


def _check_schema(doc, schema: str) -> None:
    if not isinstance(doc, dict):
        raise DataFormatError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != schema:
        raise DataFormatError(
            f"expected schema {schema!r}, got {doc.get('schema')!r}")


def grid_to_json(spec: GridSpec) -> dict:
    return _fields_to_json(spec)


def grid_from_json(doc: dict) -> GridSpec:
    try:
        return _build(GridSpec, doc)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"bad grid document: {exc}") from exc


def _anchor_to_json(a: ReferencePoint) -> dict:
    return {"id": a.id, "position": list(a.position)}


def _anchors_from_json(docs) -> tuple[ReferencePoint, ...]:
    for a in docs:
        _check_keys(a, ("id", "position"), "anchor")
    return tuple(ReferencePoint(a["id"], a["position"]) for a in docs)


def _satellite_from_json(doc: dict) -> SatelliteSpec:
    return _build(SatelliteSpec, doc, position=tuple,
                  visibility=lambda v: tuple(bool(x) for x in v))


def scenario_to_json(s: Scenario) -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "grid": grid_to_json(s.grid),
        "anchors": [_anchor_to_json(a) for a in s.anchors],
        "satellites": [_fields_to_json(sat) for sat in s.satellites],
        "trajectory": _fields_to_json(s.trajectory),
        "duration": s.duration,
        "rates": {"gnss": s.gnss_rate, "uwb": s.uwb_rate,
                  "odometry": s.odometry_rate},
        "uwb_noise": _fields_to_json(s.uwb_noise),
        "gnss_noise": _fields_to_json(s.gnss_noise),
        "odometry_noise": _fields_to_json(s.odometry_noise),
        "seed": s.seed,
    }


def scenario_from_json(doc: dict) -> Scenario:
    _check_schema(doc, SCENARIO_SCHEMA)
    try:
        body = {k: v for k, v in doc.items() if k not in ("schema", "rates")}
        rates = doc["rates"]
        _check_keys(rates, ("gnss", "uwb", "odometry"), "rates")
        return _build(
            Scenario,
            {**body, "gnss_rate": rates["gnss"], "uwb_rate": rates["uwb"],
             "odometry_rate": rates["odometry"]},
            grid=grid_from_json,
            anchors=_anchors_from_json,
            satellites=lambda docs: tuple(map(_satellite_from_json, docs)),
            trajectory=lambda d: _build(Trajectory, d, position=tuple,
                                        center=tuple),
            uwb_noise=lambda d: _build(UwbNoiseConfig, d),
            gnss_noise=lambda d: _build(GnssNoiseConfig, d),
            odometry_noise=lambda d: _build(OdometryNoiseConfig, d))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad scenario config: {exc}") from exc


_FILTER_SCALARS = ("combine_mode", "estimate_radius", "sigma_speed",
                   "sigma_heading", "sigma_rw", "max_gap", "recenter_enabled")
_FILTER_MODELS = ("range_model", "tdoa_model", "aoa_model")
_FILTER_KEYS = ("schema", "grid", "anchors", "bssd_gmm", *_FILTER_SCALARS,
                *_FILTER_MODELS)


def filter_config_to_json(cfg: FilterConfig, grid: GridSpec,
                          anchors) -> dict:
    routing = (cfg.bssd_routing.los_los, cfg.bssd_routing.nlos_los,
               cfg.bssd_routing.los_nlos)
    return {
        "schema": FILTER_SCHEMA,
        "grid": grid_to_json(grid),
        "anchors": [_anchor_to_json(a) for a in anchors],
        **{k: getattr(cfg, k) for k in _FILTER_SCALARS},
        **{k: model_to_json(getattr(cfg, k)) for k in _FILTER_MODELS},
        # routing keeps single Gaussians; weights are irrelevant to case
        # selection, so nominal values are stored
        "bssd_gmm": model_to_json(GmmModel(
            (0.34, 0.33, 0.33), tuple(m.mean for m in routing),
            tuple(m.std ** 2 for m in routing))),
    }


def filter_config_from_json(doc: dict):
    """Returns (FilterConfig, GridSpec, anchors); the models are required."""
    _check_schema(doc, FILTER_SCHEMA)
    _check_keys(doc, _FILTER_KEYS, "filter config")
    try:
        cfg = FilterConfig(
            **{k: doc[k] for k in _FILTER_SCALARS if k in doc},
            **{k: model_from_json(doc[k]) for k in _FILTER_MODELS},
            bssd_routing=BssdRouting.from_gmm(model_from_json(doc["bssd_gmm"])))
        return cfg, grid_from_json(doc["grid"]), _anchors_from_json(doc["anchors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad filter config: {exc}") from exc


def write_gmm(model: GmmModel, path) -> None:
    dump_json({"schema": GMM_SCHEMA, **model_to_json(model)}, path)


def read_gmm(path) -> GmmModel:
    doc = load_json(path)
    _check_schema(doc, GMM_SCHEMA)
    if doc.get("type") != _MODEL_TAGS[GmmModel]:
        raise DataFormatError("GMM file does not contain a gmm model")
    return model_from_json({k: v for k, v in doc.items() if k != "schema"})


def load_json(path):
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


def _observations_from_rows(rows) -> list[Observation]:
    """Consecutive GNSS rows sharing a timestamp form one GNSS epoch."""
    events = []   # Observations, and (t, satellites) for each GNSS epoch
    epoch = None  # the GNSS epoch of the previous row
    for t, _, kind, ref, v1, v2, v3, v4, v5 in rows:
        t = float(t)
        if kind == "gnss":
            if epoch is None or epoch[0] != t:
                epoch = (t, [])
                events.append(epoch)
            epoch[1].append(SatelliteObservation(
                ref, (float(v2), float(v3), float(v4)), float(v1),
                LOS if v5 == "1" else NLOS))
            continue
        epoch = None
        if kind == "range":
            payload = Range(ref, float(v1))
        elif kind == "tdoa":
            a, b = ref.split("|")
            payload = RangeDifference(a, b, float(v1))
        elif kind == "aoa":
            payload = Angle(ref, float(v1))
        elif kind == "odo":
            payload = Odometry(float(v1), float(v2))
        else:
            raise ValueError(f"unknown observation type {kind!r}")
        events.append(Observation(t, payload))
    return [Observation(e[0], GnssPseudoranges(tuple(e[1]))) if type(e) is tuple
            else e for e in events]


def write_observations(events, path) -> None:
    _write_csv(path, OBS_HEADER, _obs_rows(events))


def read_observations(path) -> list[Observation]:
    return _read_csv(path, OBS_HEADER, _observations_from_rows)


# ------------------------------------------------------- truth / estimates CSV

def write_ground_truth(truth: GroundTruth, path) -> None:
    _write_csv(path, TRUTH_HEADER, ([_fmt(t)] + [_fmt(v) for v in pos]
                                    for t, pos in zip(truth.times, truth.positions)))


def read_ground_truth(path) -> GroundTruth:
    rows = _read_csv(path, TRUTH_HEADER, lambda rows: [
        (float(t), float(x), float(y), float(z)) for t, x, y, z in rows])
    table = np.array(rows, dtype=float).reshape(-1, 4)
    return GroundTruth(table[:, 0], table[:, 1:])


def write_estimates(estimates: list[Estimate], path) -> None:
    _write_csv(path, ESTIMATE_HEADER, (
        [_fmt(e.timestamp), _fmt(e.position[0]), _fmt(e.position[1]),
         _fmt(e.position[2]), str(e.map_cell), _fmt(e.map_mass),
         _fmt(e.wm_radius), str(e.support_count)] for e in estimates))


def read_estimates(path) -> list[Estimate]:
    return _read_csv(path, ESTIMATE_HEADER, lambda rows: [
        Estimate(float(t), (float(x), float(y), float(z)), int(cell),
                 float(mass), float(radius), int(support))
        for t, x, y, z, cell, mass, radius, support in rows])


# ------------------------------------------------- stats / ECDF / residuals CSV

def write_stats(summaries: dict[str, StatsSummary], path) -> None:
    _write_csv(path, STATS_HEADER, (
        [name, _fmt(s.mean), _fmt(s.median), _fmt(s.variance)]
        + [_fmt(q) for q in s.quantiles] + [_fmt(p) for p in s.percentiles]
        + [str(s.count)] for name, s in summaries.items()))


def write_ecdf(curves: dict[str, tuple[np.ndarray, np.ndarray]], path) -> None:
    _write_csv(path, ECDF_HEADER, ([name, _fmt(xv), _fmt(fv)]
                                   for name, (x, f) in curves.items()
                                   for xv, fv in zip(x, f)))


def write_residuals(values, path) -> None:
    _write_csv(path, RESIDUAL_HEADER, ([_fmt(v)] for v in np.asarray(values).ravel()))


def read_residuals(path) -> np.ndarray:
    """Single-column CSV (header 'residual') of scalar residuals."""
    return np.asarray(_read_csv(path, RESIDUAL_HEADER,
                                lambda rows: [float(v) for (v,) in rows]))
