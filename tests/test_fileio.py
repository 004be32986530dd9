import numpy as np
import pytest

from gridfuse.engine import (DEFAULT_BSSD_GMM, DEFAULT_UWB_MODEL, FilterConfig,
                             FusionEngine)
from gridfuse.fileio import (DataFormatError, dump_json, filter_config_from_json,
                             filter_config_to_json, grid_from_json, grid_to_json,
                             load_json, model_from_json, model_to_json,
                             read_estimates, read_gmm, read_ground_truth,
                             read_observations, read_residuals,
                             scenario_from_json, scenario_to_json, write_estimates,
                             write_gmm, write_ground_truth, write_observations,
                             write_residuals)
from gridfuse.grid import GridSpec
from gridfuse.noise import (GaussianModel, GmmModel, MixtureLikelihoodModel,
                            UniformModel)
from gridfuse.observations import (Angle, Observation, Odometry, Range,
                                   RangeDifference)
from gridfuse.simulator import generate, make_static_scenario


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


def test_grid_json_round_trip():
    spec = GridSpec((-15.3, 2.25), 0.2, (150, 151), plane_height=1.1)
    assert grid_from_json(grid_to_json(spec)) == spec


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


def test_observations_bad_header(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(DataFormatError):
        read_observations(path)


def test_observations_malformed_row(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t,sensor,type,ref_ids,v1,v2,v3,v4,v5\n"
                    "abc,uwb,range,A01,3.0,,,,\n")
    with pytest.raises(DataFormatError):
        read_observations(path)


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
    cfg = FilterConfig(combine_mode="product", estimate_radius=2.5,
                       sigma_speed=0.7, max_gap=20.0, recenter_enabled=False)
    spec = GridSpec((0, 0), 0.5, (10, 10))
    from gridfuse.geometry import ReferencePoint
    anchors = (ReferencePoint("A1", (1.0, 2.0, 3.0)),)
    doc = filter_config_to_json(cfg, spec, anchors)
    cfg2, spec2, anchors2 = filter_config_from_json(doc)
    assert spec2 == spec and anchors2 == anchors
    assert cfg2.combine_mode == "product"
    assert cfg2.estimate_radius == 2.5
    assert cfg2.sigma_speed == 0.7 and cfg2.max_gap == 20.0
    assert not cfg2.recenter_enabled
    assert cfg2.range_model == cfg.range_model
    assert cfg2.bssd_routing.los_los == cfg.bssd_routing.los_los
    assert cfg2.bssd_routing.nlos_los == cfg.bssd_routing.nlos_los
    assert cfg2.bssd_routing.los_nlos == cfg.bssd_routing.los_nlos


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
    for other in ({"type": "gaussian", "mean": 0.0, "std": 1.0}, {"type": []}):
        dump_json({"schema": "gridfuse-gmm-v1", **other}, path)
        with pytest.raises(DataFormatError):
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
