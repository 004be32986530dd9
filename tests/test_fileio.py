import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gridfuse.engine import (DEFAULT_BSSD_GMM, DEFAULT_UWB_MODEL, FilterConfig,
                             FusionEngine)
from gridfuse.fileio import (ESTIMATE_HEADER, OBS_HEADER, RESIDUAL_HEADER,
                             TRUTH_HEADER, DataFormatError, dump_json,
                             filter_config_from_json, filter_config_to_json,
                             load_json, model_from_json, model_to_json,
                             read_estimates, read_gmm, read_ground_truth,
                             read_observations, read_residuals,
                             scenario_from_json, scenario_to_json,
                             write_estimates, write_gmm, write_ground_truth,
                             write_observations, write_residuals)
from gridfuse.geometry import ReferencePoint
from gridfuse.grid import GridSpec
from gridfuse.noise import (GaussianModel, GmmModel, MixtureLikelihoodModel,
                            UniformModel)
from gridfuse.observations import (LOS, NLOS, Angle, Observation, Odometry, Range,
                                   RangeDifference)
from gridfuse.simulator import Trajectory, generate, make_static_scenario
from gridfuse.update import bssd_routes

from model_cases import NO_FINITE_DENSITY, as_json

# A filter file written by ``gridfuse demo --seed 42`` before the gap warning's
# threshold was fixed and recentering became unconditional: it still holds
# ``max_gap`` and ``recenter_enabled``.
FILTER_V1 = Path(__file__).parent / "data" / "filter_v1.json"


def test_model_json_round_trip():
    models = [
        GaussianModel(0.05, 0.31),
        UniformModel(-30.0, 30.0),
        GmmModel.from_unnormalized((0.42, 0.24, 0.24, 0.01),
                                   (0.25, 13.09, -12.61, -0.3),
                                   (13.06, 20.37, 21.05, 142.89)),
        MixtureLikelihoodModel(0.9, GaussianModel(0.05, 0.31),
                               UniformModel(-30.0, 30.0)),
    ]
    for m in models:
        assert model_from_json(model_to_json(m)) == m


def test_model_json_rejects_garbage():
    with pytest.raises(DataFormatError):
        model_from_json({"type": "cauchy"})
    with pytest.raises(DataFormatError):
        model_from_json({"type": "gaussian", "mean": 0.0})
    mixture = {"type": "mixture", "ratio": 0.9,
               "primary": {"type": "cauchy", "loc": 0.0},
               "secondary": {"type": "uniform", "low": -30.0, "high": 30.0}}
    with pytest.raises(DataFormatError):
        model_from_json(mixture)
    with pytest.raises(DataFormatError):
        model_from_json({**mixture, "primary": 3.0})
    with pytest.raises(DataFormatError, match="'sdt'"):
        model_from_json({"type": "gaussian", "mean": 0.0, "std": 1.0, "sdt": 1.0})


def test_default_models_json_literal():
    assert model_to_json(DEFAULT_UWB_MODEL) == {
        "type": "mixture", "ratio": 0.9,
        "primary": {"type": "gaussian", "mean": 0.05, "std": 0.31},
        "secondary": {"type": "uniform", "low": -30.0, "high": 30.0},
    }
    assert model_to_json(DEFAULT_BSSD_GMM) == {
        "type": "gmm",
        "weights": [0.46153846153846156, 0.26373626373626374,
                    0.26373626373626374, 0.01098901098901099],
        "means": [0.25, 13.09, -12.61, -0.3],
        "variances": [13.06, 20.37, 21.05, 142.89],
    }


def _filter_doc(grid: GridSpec = GridSpec((0, 0), 0.5, (10, 10))) -> dict:
    """The filter file of the default configuration, through JSON text."""
    return json.loads(json.dumps(filter_config_to_json(FilterConfig(), grid, ())))


def test_grid_json_round_trip():
    spec = GridSpec((-15.3, 2.25), 0.2, (150, 151), plane_height=1.1)
    _, grid, _ = filter_config_from_json(_filter_doc(spec))
    assert grid == spec


@pytest.mark.parametrize("extent", [[20.9, 30], [20, "30"], [20.9, "30"]])
def test_grid_json_rejects_non_integer_extent(extent):
    doc = _filter_doc()
    doc["grid"] = {"origin": [0.0, 0.0], "cell_size": 1.0, "extent": extent}
    with pytest.raises(DataFormatError, match="extent"):
        filter_config_from_json(doc)


def test_grid_json_takes_integral_float_extent():
    """``GridSpec`` decides which numbers make an extent: 150.0 is 150."""
    doc = _filter_doc()
    doc["grid"]["extent"] = [150.0, 150]
    _, grid, _ = filter_config_from_json(doc)
    assert grid.extent == (150, 150)


def test_scenario_json_round_trip_reproduces_stream(tmp_path):
    sc = make_static_scenario(n_epochs=40, seed=9)
    path = tmp_path / "scenario.json"
    dump_json(scenario_to_json(sc), path)
    sc2 = scenario_from_json(load_json(path))
    ev1, tr1 = generate(sc)
    ev2, tr2 = generate(sc2)
    assert ev1 == ev2
    assert np.array_equal(tr1.positions, tr2.positions)


def test_scenario_schema_checked():
    sc = make_static_scenario(n_epochs=10)
    doc = scenario_to_json(sc)
    doc["schema"] = "something-else"
    with pytest.raises(DataFormatError):
        scenario_from_json(doc)


@pytest.mark.parametrize("section", [None, "grid", "trajectory", "rates",
                                     "uwb_noise", "anchors", "satellites"])
def test_scenario_rejects_unknown_keys(section):
    doc = scenario_to_json(make_static_scenario(n_epochs=10))
    target = doc if section is None else doc[section]
    if isinstance(target, list):
        target = target[0]
    target["sped"] = 1.0
    with pytest.raises(DataFormatError, match="'sped'"):
        scenario_from_json(doc)


# file kind, path to a value, a value of another JSON kind, the field (or, for
# a section, its class) named
WRONG_KIND = [
    ("scenario", ("duration",), True, "duration"),
    ("scenario", ("rates", "uwb"), True, "uwb_rate"),
    ("scenario", ("grid", "cell_size"), True, "cell_size"),
    ("scenario", ("anchors", 0, "id"), 1, "id"),
    ("scenario", ("satellites", 0, "id"), 1, "id"),
    ("scenario", ("trajectory", "kind"), None, "kind"),
    ("scenario", ("trajectory",), "static", "Trajectory"),
    ("scenario", ("uwb_noise", "outlier_rate"), True, "outlier_rate"),
    ("scenario", ("gnss_noise", "sigma_pseudorange"), "7.8", "sigma_pseudorange"),
    ("scenario", ("odometry_noise", "sigma_speed"), True, "sigma_speed"),
    ("filter", ("sigma_speed",), True, "sigma_speed"),
    ("filter", ("estimate_radius",), "2.5", "estimate_radius"),
    ("filter", ("combine_mode",), None, "combine_mode"),
    ("filter", ("grid", "cell_size"), True, "cell_size"),
    ("filter", ("grid",), [], "GridSpec"),
    ("filter", ("anchors", 0, "id"), 1, "id"),
    ("filter", ("range_model", "primary", "std"), True, "std"),
    ("filter", ("bssd_gmm", "weights", 0), True, "weights"),
]


@pytest.mark.parametrize("kind, path, value, name", WRONG_KIND,
                         ids=[f"{k}-{'.'.join(map(str, p))}" for k, p, _, _ in WRONG_KIND])
def test_json_value_of_another_kind_is_malformed(kind, path, value, name):
    """A field declared ``str`` takes only a string, ``int`` or ``float`` only
    a number that is no boolean, ``bool`` only a boolean, and null only where
    the field may be None: ``"sigma_speed": true`` is no 1.0 and an anchor id
    1 is no ``"1"``. A section that is no object is malformed too."""
    sc = make_static_scenario(n_epochs=10)
    if kind == "scenario":
        doc, read = scenario_to_json(sc), scenario_from_json
    else:
        doc = filter_config_to_json(FilterConfig(), sc.grid, sc.anchors)
        read = filter_config_from_json
    doc = json.loads(json.dumps(doc))
    read(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(DataFormatError, match=rf"\b{name} must be a"):
        read(doc)


def test_scenario_trajectory_kind_only_takes_defaults():
    doc = scenario_to_json(make_static_scenario(n_epochs=10))
    doc["trajectory"] = {"kind": "circuit"}
    assert scenario_from_json(doc).trajectory == Trajectory("circuit")


def test_observations_csv_round_trip(tmp_path):
    sc = make_static_scenario(n_epochs=30, seed=5)
    events, _ = generate(sc)
    events.append(Observation(999.0, RangeDifference("A01", "A02", -1.25)))
    events.append(Observation(999.5, Angle("A03", 2.5)))
    path = tmp_path / "obs.csv"
    write_observations(events, path)
    back = read_observations(path)
    assert back == events


def test_observation_float_precision(tmp_path):
    value = 1.0 / 3.0 + 1e-13
    events = [Observation(0.123456789012345, Range("A", value))]
    path = tmp_path / "obs.csv"
    write_observations(events, path)
    back = read_observations(path)
    assert back[0].timestamp == events[0].timestamp  # exact round trip
    assert back[0].payload.value == value


# reader, its header, and data rows it cannot parse; a GNSS row's v5 is 1 or 0
CSV_READERS = {
    "observations": (read_observations, OBS_HEADER,
                     ("abc,uwb,range,A01,3.0,,,,", "1.0,gnss,gnss,G01,2e7,1,2,3,yes",
                      "1.0,gnss,gnss,G01,2e7,1,2,3,")),
    "truth": (read_ground_truth, TRUTH_HEADER, ("0.5,1.0,north,0.0",)),
    "estimates": (read_estimates, ESTIMATE_HEADER, ("0.5,1,2,0,3.5,0.1,1.0,4",)),
    "residuals": (read_residuals, RESIDUAL_HEADER, ("1.0,2.0",)),
}


@pytest.mark.parametrize("kind", CSV_READERS)
def test_csv_reader_bad_header(tmp_path, kind):
    reader, _, _ = CSV_READERS[kind]
    path = tmp_path / "data.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(DataFormatError, match="unexpected header"):
        reader(path)


@pytest.mark.parametrize("kind", CSV_READERS)
def test_csv_reader_malformed_row(tmp_path, kind):
    reader, header, bad_rows = CSV_READERS[kind]
    path = tmp_path / "data.csv"
    for bad_row in bad_rows:
        path.write_text(",".join(header) + "\n" + bad_row + "\n")
        with pytest.raises(DataFormatError, match="malformed row"):
            reader(path)


def test_ground_truth_round_trip(tmp_path):
    sc = make_static_scenario(n_epochs=20, seed=1)
    _, truth = generate(sc)
    path = tmp_path / "truth.csv"
    write_ground_truth(truth, path)
    back = read_ground_truth(path)
    assert np.array_equal(back.times, truth.times)
    assert np.array_equal(back.positions, truth.positions)


def test_estimates_round_trip(tmp_path):
    spec = GridSpec((-10, -10), 1.0, (21, 21))
    from gridfuse.geometry import ReferencePoint
    anchors = [ReferencePoint(f"A{i}", p) for i, p in enumerate(
        [(-9, -9, 2), (9, -9, 2), (0, 9, 2)])]
    eng = FusionEngine(spec, anchors)
    ests = eng.run([Observation(0.5 * (k + 1), Range(anchors[k % 3].id, 10.0))
                    for k in range(5)])
    path = tmp_path / "estimates.csv"
    write_estimates(ests, path)
    assert read_estimates(path) == ests


def test_filter_config_round_trip():
    """The filter file holds the grid, the anchors and FilterConfig's fields,
    no more; a config differing from the defaults in every field reads back
    equal."""
    cfg = FilterConfig(
        combine_mode="product", estimate_radius=2.5, sigma_speed=0.7,
        sigma_heading=0.3, sigma_rw=2.0, range_model=GaussianModel(0.1, 0.4),
        tdoa_model=MixtureLikelihoodModel(0.8, GaussianModel(0.0, 0.5),
                                          UniformModel(-20.0, 20.0)),
        aoa_model=GaussianModel(0.01, 0.2),
        bssd_gmm=GmmModel((0.3, 0.05, 0.25, 0.2, 0.2), (0.1, 1.0, 14.2, -13.7, 2.5),
                          (11.0, 0.7, 19.5, 22.25, 1e-4)))
    default = FilterConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
    spec = GridSpec((0, 0), 0.5, (10, 10))
    anchors = (ReferencePoint("A1", (1.0, 2.0, 3.0)),)
    doc = json.loads(json.dumps(filter_config_to_json(cfg, spec, anchors)))
    assert set(doc) == {"schema", "grid", "anchors", *(f.name for f in fields(cfg))}
    assert filter_config_from_json(doc) == (cfg, spec, anchors)


@pytest.mark.parametrize("key, value", [
    ("sigma_speed", -1.0), ("sigma_speed", 0.0), ("sigma_speed", math.nan),
    ("sigma_rw", math.nan), ("combine_mode", "prod"),
])
def test_filter_config_rejects_an_invalid_setting(key, value):
    """A setting FilterConfig rejects makes a malformed file."""
    doc = filter_config_to_json(FilterConfig(), GridSpec((0, 0), 0.5, (10, 10)), ())
    doc[key] = value
    with pytest.raises(DataFormatError):
        filter_config_from_json(doc)


@pytest.mark.parametrize("gmm", [
    GmmModel((0.1, 0.2, 0.3, 0.4), (-12.61, 13.09, -0.3, 0.25),
             (21.05, 20.37, 142.89, 13.06)),
    GmmModel((0.3, 0.05, 0.25, 0.2, 0.2), (0.1, 1.0 / 3.0, 14.2, -13.7, 2.5e-3),
             (11.0, 0.7, 19.5, 22.25, 1e-4)),
], ids=["4_components", "5_components"])
def test_filter_config_bssd_gmm_round_trips_unchanged(gmm, tmp_path):
    """A filter file holds the BSSD residual mixture as it is: every
    component, weight and order survives a write and a read."""
    path = tmp_path / "filter.json"
    dump_json(filter_config_to_json(FilterConfig(bssd_gmm=gmm),
                                    GridSpec((0, 0), 0.5, (10, 10)), ()), path)
    cfg, _, _ = filter_config_from_json(load_json(path))
    assert cfg.bssd_gmm == gmm


def test_filter_config_reads_three_component_file_of_earlier_writer():
    """Files written before the filter kept the whole mixture hold the three
    routed Gaussians with nominal weights 0.34/0.33/0.33; they route to the
    same three Gaussians, component 0 for LOS/LOS, 1 and 2 for NLOS."""
    doc = filter_config_to_json(FilterConfig(), GridSpec((0, 0), 0.5, (10, 10)), ())
    doc["bssd_gmm"] = {"type": "gmm", "weights": [0.34, 0.33, 0.33],
                       "means": [0.25, 13.09, -12.61],
                       "variances": [13.059999999999999, 20.369999999999997,
                                     21.050000000000004]}
    cfg, _, _ = filter_config_from_json(doc)
    gmm = cfg.bssd_gmm
    routes = bssd_routes(gmm)
    assert routes == {(LOS, LOS): gmm.component(0), (NLOS, LOS): gmm.component(1),
                      (LOS, NLOS): gmm.component(2)}
    default = bssd_routes(DEFAULT_BSSD_GMM)
    for key, model in routes.items():
        assert model.mean == default[key].mean
        assert model.std == pytest.approx(default[key].std, rel=1e-15)


@pytest.mark.parametrize("bssd_gmm", [
    {"type": "gaussian", "mean": 0.25, "std": 3.6},
    {"type": "gmm", "weights": [0.5, 0.5], "means": [0.25, 13.09],
     "variances": [13.06, 20.37]},
], ids=["gaussian", "two_components"])
def test_filter_config_rejects_unroutable_bssd_gmm(bssd_gmm):
    """A ``bssd_gmm`` that is no mixture, or has fewer than three components,
    is a malformed file."""
    doc = filter_config_to_json(FilterConfig(), GridSpec((0, 0), 0.5, (10, 10)), ())
    doc["bssd_gmm"] = bssd_gmm
    with pytest.raises(DataFormatError, match="bssd_gmm"):
        filter_config_from_json(doc)


@pytest.mark.parametrize("cls, kwargs", NO_FINITE_DENSITY.values(),
                         ids=NO_FINITE_DENSITY.keys())
def test_filter_config_rejects_models_without_a_finite_density(tmp_path, cls, kwargs):
    doc = filter_config_to_json(FilterConfig(), GridSpec((0, 0), 0.5, (10, 10)), ())
    doc["range_model"] = as_json(cls, kwargs)
    dump_json(doc, tmp_path / "filter.json")
    with pytest.raises(DataFormatError, match="bad model"):
        filter_config_from_json(load_json(tmp_path / "filter.json"))


def test_filter_config_required_keys_only_takes_defaults():
    required = ("schema", "grid", "anchors", "range_model", "tdoa_model",
                "aoa_model", "bssd_gmm")
    doc = filter_config_to_json(FilterConfig(combine_mode="product",
                                             sigma_rw=3.0, sigma_speed=1.0),
                                GridSpec((0, 0), 0.5, (10, 10)), ())
    cfg, _, _ = filter_config_from_json({k: doc[k] for k in required})
    default = FilterConfig()
    for name in ("combine_mode", "estimate_radius", "sigma_speed",
                 "sigma_heading", "sigma_rw"):
        assert getattr(cfg, name) == getattr(default, name), name
    for name in required[3:]:
        with pytest.raises(DataFormatError):
            filter_config_from_json({k: doc[k] for k in required if k != name})


@pytest.mark.parametrize("section", [None, "grid", "range_model", "anchors"])
def test_filter_config_rejects_unknown_keys(section):
    doc = filter_config_to_json(FilterConfig(), GridSpec((0, 0), 0.5, (10, 10)),
                                (ReferencePoint("A1", (1.0, 2.0, 3.0)),))
    target = doc if section is None else doc[section]
    if isinstance(target, list):
        target = target[0]
    target["sigma_sped"] = 3.0
    with pytest.raises(DataFormatError, match="'sigma_sped'"):
        filter_config_from_json(doc)


def test_v1_filter_file_reads_as_the_current_writer_file():
    """The v1 file differs from what the writer gives for the demo's static
    grid and anchors only by the two keys it no longer writes, and it reads to
    the same configuration."""
    scenario = make_static_scenario(n_epochs=60, cell_size=0.5, seed=42)
    current = json.loads(json.dumps(filter_config_to_json(
        FilterConfig(), scenario.grid, scenario.anchors)))
    v1 = load_json(FILTER_V1)
    assert v1.pop("max_gap") == 10.0 and v1.pop("recenter_enabled") is True
    assert v1 == current
    assert (filter_config_from_json(load_json(FILTER_V1))
            == filter_config_from_json(current))


def test_gmm_file_round_trip(tmp_path):
    gmm = GmmModel((0.5, 0.5), (-1.0, 4.0), (1.0, 2.0))
    path = tmp_path / "model.json"
    write_gmm(gmm, path)
    assert read_gmm(path) == gmm


def test_gmm_file_schema_checked(tmp_path):
    path = tmp_path / "model.json"
    dump_json({"schema": "wrong", "type": "gmm"}, path)
    with pytest.raises(DataFormatError):
        read_gmm(path)
    gmm = model_to_json(GmmModel((0.5, 0.5), (-1.0, 4.0), (1.0, 2.0)))
    for other in ({"type": "gaussian", "mean": 0.0, "std": 1.0}, {"type": []},
                  {**gmm, "weigths": [1.0]}):
        dump_json({"schema": "gridfuse-gmm-v1", **other}, path)
        with pytest.raises(DataFormatError):
            read_gmm(path)
    dump_json([1, 2], path)
    with pytest.raises(DataFormatError, match="JSON object"):
        read_gmm(path)


def test_residuals_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(0, 11, 100)
    path = tmp_path / "resid.csv"
    write_residuals(values, path)
    assert np.array_equal(read_residuals(path), values)


def test_load_json_invalid(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataFormatError):
        load_json(path)


def test_odometry_rows_round_trip(tmp_path):
    events = [Observation(0.25, Odometry(1.5, -0.7)),
              Observation(0.5, Range("A01", 3.25))]
    path = tmp_path / "obs.csv"
    write_observations(events, path)
    assert read_observations(path) == events
