"""File formats: JSON configs (versioned schema field) and one-header CSV data.

Each format is declared once. A CSV format is a header constant plus a row
writer and a row parser, passed to ``_write_csv`` / ``_read_csv``. A JSON
document is the fields of the dataclass it stores, written by ``_to_json``
and read back by ``_build``, which reads each value as the type the dataclass
declares for its field. Absent keys take the dataclass defaults. Every JSON
object has one policy for keys it does not know: a ``DataFormatError`` naming
them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .engine import FilterConfig
from .estimation import Estimate
from .geometry import ReferencePoint
from .grid import GridSpec
from .metrics import StatsSummary
from .noise import (DensityModel, GaussianModel, GmmModel, MixtureLikelihoodModel,
                    UniformModel)
from .observations import (LOS, NLOS, Angle, GnssPseudoranges, Observation,
                           Odometry, Range, RangeDifference, SatelliteObservation)
from .simulator import GroundTruth, Scenario

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


def _to_json(value):
    """A density model as its tagged document, any other dataclass as its
    fields, a tuple as a list; values inside recurse."""
    if type(value) in _MODEL_TAGS:
        return model_to_json(value)
    if is_dataclass(value):
        return _fields_to_json(value)
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _fields_to_json(obj) -> dict:
    return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}


def model_to_json(model) -> dict:
    if type(model) not in _MODEL_TAGS:
        raise TypeError(f"unsupported model {type(model).__name__}")
    return {"type": _MODEL_TAGS[type(model)], **_fields_to_json(model)}


def model_from_json(doc: dict):
    try:
        kind = doc["type"]
        cls = _MODEL_CLASSES.get(kind)
        if cls is not None:
            return _build(cls, {k: v for k, v in doc.items() if k != "type"})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad model document: {exc}") from exc
    raise DataFormatError(f"unknown model type {kind!r}")


# ----------------------------------------------------------- JSON documents

def _check_keys(doc: dict, known, what: str) -> None:
    if not isinstance(doc, dict):
        raise DataFormatError(f"{what} must be a JSON object, got {json.dumps(doc)}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise DataFormatError(f"{what}: unknown key(s) {', '.join(map(repr, unknown))}")


def _build(cls, doc: dict):
    """``cls`` from ``doc``, whose keys must name fields of ``cls``; each value
    is read as the type ``cls`` declares for that field. Absent keys take the
    dataclass defaults."""
    _check_keys(doc, [f.name for f in fields(cls)], cls.__name__)
    types = get_type_hints(cls)
    return cls(**{k: _read(types[k], v, k) for k, v in doc.items()})


# The JSON kinds a declared type takes; a bool is no number.
_JSON_KINDS = {str: (str, "a string"), int: ((int, float), "a number"),
               float: ((int, float), "a number"), bool: (bool, "a boolean"),
               tuple: (list, "a list")}


def _read(tp, value, name: str):
    """``value`` as the type ``tp`` declared for field ``name``: a density model
    from its tagged document, a dataclass from its object, ``T | None`` as null
    or T, a tuple from a list element by element (the dataclass checks its
    length) and a scalar only from its own JSON kind."""
    if tp == DensityModel or tp in _MODEL_TAGS:
        return model_from_json(value)
    if is_dataclass(tp):
        return _build(tp, value)
    args = get_args(tp)
    if isinstance(tp, UnionType):
        return None if value is None and NoneType in args else _read(args[0], value, name)
    kinds, text = _JSON_KINDS[get_origin(tp) or tp]
    if not isinstance(value, kinds) or isinstance(value, bool) != (tp is bool):
        raise DataFormatError(f"{name} must be {text}, got {json.dumps(value)}")
    return tuple(_read(args[0], v, name) for v in value) if args else value


def _check_schema(doc, schema: str) -> None:
    if not isinstance(doc, dict):
        raise DataFormatError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != schema:
        raise DataFormatError(
            f"expected schema {schema!r}, got {doc.get('schema')!r}")


def scenario_to_json(s: Scenario) -> dict:
    doc = _fields_to_json(s)
    doc["rates"] = {k: doc.pop(f"{k}_rate") for k in ("gnss", "uwb", "odometry")}
    return {"schema": SCENARIO_SCHEMA, **doc}


def scenario_from_json(doc: dict) -> Scenario:
    _check_schema(doc, SCENARIO_SCHEMA)
    try:
        body = {k: v for k, v in doc.items() if k not in ("schema", "rates")}
        rates = doc["rates"]
        _check_keys(rates, ("gnss", "uwb", "odometry"), "rates")
        return _build(Scenario, {**body, **{f"{k}_rate": rates[k]
                                            for k in ("gnss", "uwb", "odometry")}})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad scenario config: {exc}") from exc


# The models are required keys; the others take FilterConfig's defaults.
_FILTER_MODELS = ("range_model", "tdoa_model", "aoa_model", "bssd_gmm")
# Earlier writers also stored the gap warning's threshold, now fixed, and
# whether the grid recenters, which it now always does.
_FILTER_LEGACY = ("max_gap", "recenter_enabled")


def filter_config_to_json(cfg: FilterConfig, grid: GridSpec,
                          anchors) -> dict:
    return {
        "schema": FILTER_SCHEMA,
        "grid": _to_json(grid),
        "anchors": [_to_json(a) for a in anchors],
        **_fields_to_json(cfg),
    }


def filter_config_from_json(doc: dict):
    """Returns (FilterConfig, GridSpec, anchors). Every key besides the grid
    and the anchors is a FilterConfig field, the models required; a setting
    FilterConfig rejects makes the file malformed. A legacy ``max_gap`` is
    ignored; a legacy ``recenter_enabled`` must be true."""
    _check_schema(doc, FILTER_SCHEMA)
    if doc.get("recenter_enabled", True) is not True:
        raise DataFormatError("bad filter config: the grid always recenters, "
                              f"got recenter_enabled {doc['recenter_enabled']!r}")
    try:
        settings = {k: v for k, v in doc.items()
                    if k not in ("schema", "grid", "anchors", *_FILTER_LEGACY)}
        cfg = _build(FilterConfig, {**settings, **{k: doc[k] for k in _FILTER_MODELS}})
        anchors = _read(tuple[ReferencePoint, ...], doc["anchors"], "anchors")
        return cfg, _build(GridSpec, doc["grid"]), anchors
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


_VISIBILITY = {"1": LOS, "0": NLOS}


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
            visibility = _VISIBILITY.get(v5)
            if visibility is None:
                raise ValueError(f"GNSS v5 must be 1 (LOS) or 0 (NLOS), got {v5!r}")
            epoch[1].append(SatelliteObservation(
                ref, (float(v2), float(v3), float(v4)), float(v1), visibility))
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
