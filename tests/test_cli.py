import math
from pathlib import Path

import numpy as np
import pytest

from gridfuse.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from gridfuse.engine import FilterConfig
from gridfuse.fileio import (OBS_HEADER, DataFormatError, dump_json,
                             filter_config_from_json, filter_config_to_json,
                             load_json, read_estimates, read_gmm, scenario_to_json,
                             write_observations, write_residuals)
from gridfuse.noise import GmmModel, sample
from gridfuse.simulator import generate, make_dynamic_scenario, make_static_scenario

from model_cases import NO_FINITE_DENSITY, as_json

# See test_fileio: a demo filter file holding ``max_gap`` and ``recenter_enabled``.
FILTER_V1 = Path(__file__).parent / "data" / "filter_v1.json"


def write_scenario(path, **kwargs):
    sc = make_static_scenario(**kwargs)
    dump_json(scenario_to_json(sc), path)
    return sc


def test_usage_errors_exit_1(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["simulate"]) == EXIT_USAGE  # missing required flags
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["filter", "--config", "x", "--observations", "y", "--out", "z",
                 "--combine", "median"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == EXIT_DATA
    capsys.readouterr()


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "gridfuse-scenario-v1"}')
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path)]) == EXIT_DATA
    bad.write_text("{broken")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path)]) == EXIT_DATA
    bad.write_text("[1, 2]")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path)]) == EXIT_DATA
    assert main(["filter", "--config", str(bad), "--observations",
                 str(tmp_path / "obs.csv"), "--out", str(tmp_path)]) == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("bssd_gmm", [
    {"type": "gaussian", "mean": 0.25, "std": 3.6},
    {"type": "gmm", "weights": [0.5, 0.5], "means": [0.25, 13.09],
     "variances": [13.06, 20.37]},
], ids=["gaussian", "two_components"])
def test_filter_with_unroutable_bssd_gmm_exits_2(tmp_path, capsys, bssd_gmm):
    sc = make_static_scenario(n_epochs=2, cell_size=1.0)
    doc = filter_config_to_json(FilterConfig(), sc.grid, sc.anchors)
    doc["bssd_gmm"] = bssd_gmm
    dump_json(doc, tmp_path / "filter.json")
    (tmp_path / "obs.csv").write_text(",".join(OBS_HEADER) + "\n")
    assert main(["filter", "--config", str(tmp_path / "filter.json"),
                 "--observations", str(tmp_path / "obs.csv"),
                 "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert "bssd_gmm" in capsys.readouterr().err


@pytest.mark.parametrize("cls, kwargs", NO_FINITE_DENSITY.values(),
                         ids=NO_FINITE_DENSITY.keys())
def test_filter_with_model_without_a_finite_density_exits_2(tmp_path, capsys,
                                                            cls, kwargs):
    sc = make_static_scenario(n_epochs=2, cell_size=1.0)
    doc = filter_config_to_json(FilterConfig(), sc.grid, sc.anchors)
    doc["range_model"] = as_json(cls, kwargs)
    dump_json(doc, tmp_path / "filter.json")
    (tmp_path / "obs.csv").write_text(",".join(OBS_HEADER) + "\n")
    assert main(["filter", "--config", str(tmp_path / "filter.json"),
                 "--observations", str(tmp_path / "obs.csv"),
                 "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert "bad model" in capsys.readouterr().err


def test_simulate_filter_evaluate_pipeline(tmp_path, capsys):
    sc_path = tmp_path / "scenario.json"
    sc = write_scenario(sc_path, n_epochs=40, cell_size=0.5, seed=3)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(sc_path),
                 "--out", str(sim_out)]) == EXIT_OK
    assert (sim_out / "observations.csv").exists()
    assert (sim_out / "truth.csv").exists()

    fc_path = tmp_path / "filter.json"
    dump_json(filter_config_to_json(FilterConfig(), sc.grid, sc.anchors), fc_path)
    fil_out = tmp_path / "fil"
    assert main(["filter", "--config", str(fc_path),
                 "--observations", str(sim_out / "observations.csv"),
                 "--out", str(fil_out)]) == EXIT_OK
    estimates = read_estimates(fil_out / "estimates.csv")
    # 20 GNSS epochs + 20 UWB epochs x 4 polled anchors = 100 positioning events
    assert len(estimates) == 100

    ev_out = tmp_path / "eval"
    assert main(["evaluate", "--estimates", str(fil_out / "estimates.csv"),
                 "--truth", str(sim_out / "truth.csv"),
                 "--out", str(ev_out), "--name", "pipeline"]) == EXIT_OK
    stats = (ev_out / "stats.csv").read_text().splitlines()
    assert stats[0].startswith("scenario,mean,median")
    row = stats[1].split(",")
    assert row[0] == "pipeline"
    assert 0.0 <= float(row[1]) < 5.0  # sane mean error on an easy scenario
    capsys.readouterr()


def test_evaluate_zero_error_on_truth_positions(tmp_path, capsys):
    # feed the truth back in as the estimates: all errors must be exactly 0
    sc_path = tmp_path / "scenario.json"
    write_scenario(sc_path, n_epochs=20, seed=1)
    sim_out = tmp_path / "sim"
    main(["simulate", "--config", str(sc_path), "--out", str(sim_out)])
    truth_rows = (sim_out / "truth.csv").read_text().splitlines()
    est_lines = ["t,x,y,z,map_cell,map_mass,wm_radius,support_count"]
    for row in truth_rows[1:]:
        est_lines.append(row + ",0,1,5,1")
    est_path = tmp_path / "estimates.csv"
    est_path.write_text("\n".join(est_lines) + "\n")
    ev_out = tmp_path / "eval"
    assert main(["evaluate", "--estimates", str(est_path),
                 "--truth", str(sim_out / "truth.csv"),
                 "--out", str(ev_out)]) == EXIT_OK
    row = (ev_out / "stats.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) == 0.0 and float(row[2]) == 0.0
    capsys.readouterr()


def test_simulate_seed_override(tmp_path, capsys):
    sc_path = tmp_path / "scenario.json"
    write_scenario(sc_path, n_epochs=20, seed=0)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    main(["simulate", "--config", str(sc_path), "--out", str(out_a)])
    main(["simulate", "--config", str(sc_path), "--out", str(out_b), "--seed", "0"])
    main(["simulate", "--config", str(sc_path), "--out", str(out_c), "--seed", "5"])
    obs_a = (out_a / "observations.csv").read_bytes()
    assert obs_a == (out_b / "observations.csv").read_bytes()
    assert obs_a != (out_c / "observations.csv").read_bytes()
    capsys.readouterr()


def test_calibrate_recovers_mixture(tmp_path, capsys):
    rng = np.random.default_rng(0)
    truth_gmm = GmmModel((0.6, 0.4), (0.0, 12.0), (9.0, 16.0))
    resid_path = tmp_path / "resid.csv"
    write_residuals(sample(truth_gmm, rng, size=20000), resid_path)
    out_path = tmp_path / "gmm.json"
    assert main(["calibrate", "--residuals", str(resid_path),
                 "--components", "2", "--out", str(out_path)]) == EXIT_OK
    fitted = read_gmm(out_path)
    order = np.argsort(fitted.means)
    means = np.asarray(fitted.means)[order]
    weights = np.asarray(fitted.weights)[order]
    assert np.allclose(means, [0.0, 12.0], atol=0.5)
    assert np.allclose(weights, [0.6, 0.4], atol=0.05)
    capsys.readouterr()


def test_calibrate_too_few_samples_exits_2(tmp_path, capsys):
    resid_path = tmp_path / "resid.csv"
    write_residuals(np.arange(5.0), resid_path)
    assert main(["calibrate", "--residuals", str(resid_path),
                 "--components", "4", "--out", str(tmp_path / "g.json")]) == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("components", ["0", "-1"])
def test_calibrate_without_a_component_exits_2(tmp_path, capsys, components):
    resid_path = tmp_path / "resid.csv"
    write_residuals(np.arange(100.0), resid_path)
    assert main(["calibrate", "--residuals", str(resid_path), "--components",
                 components, "--out", str(tmp_path / "g.json")]) == EXIT_DATA
    assert "n_components" in capsys.readouterr().err


@pytest.mark.parametrize("grid_res", ["0", "-0.5", "nan"])
def test_demo_with_a_bad_cell_size_exits_2(tmp_path, capsys, grid_res):
    assert main(["demo", "--out", str(tmp_path / "demo"),
                 "--grid-res", grid_res]) == EXIT_DATA
    assert "cell_size must be finite and > 0" in capsys.readouterr().err


def _scenario_with(path, section, key, value):
    """A scenario file with ``doc[section][key]`` (or ``doc[key]``) set."""
    doc = scenario_to_json(make_static_scenario(n_epochs=4, cell_size=1.0))
    (doc if section is None else doc[section])[key] = value
    dump_json(doc, path)
    return path


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("section, key, name", [(None, "duration", "duration"),
                                                ("rates", "gnss", "gnss_rate")],
                         ids=["duration", "gnss_rate"])
def test_simulate_with_a_non_finite_scenario_value_exits_2(tmp_path, capsys,
                                                           section, key, name, value):
    config = _scenario_with(tmp_path / "scenario.json", section, key, value)
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert f"{name} must be finite and > 0" in capsys.readouterr().err


SMALL_STATIC = make_static_scenario(n_epochs=4, cell_size=1.0)
SMALL_DYNAMIC = make_dynamic_scenario(n_gnss_epochs=4, cell_size=1.0)


@pytest.mark.parametrize("scenario, edit, name", [
    (SMALL_DYNAMIC, lambda d: d["trajectory"].update(speed=math.nan), "speed"),
    (SMALL_STATIC, lambda d: d["gnss_noise"].update(sigma_pseudorange=math.inf),
     "sigma_pseudorange"),
    (SMALL_STATIC, lambda d: d["satellites"][0].update(visibility=[]), "visibility"),
    (SMALL_STATIC, lambda d: d["satellites"][0].update(visibility=["false"]), "visibility"),
    (SMALL_STATIC, lambda d: d["uwb_noise"].update(anchors_per_epoch=2.5),
     "anchors_per_epoch"),
    (SMALL_STATIC, lambda d: d.update(seed=1.5), "seed"),
    (SMALL_STATIC, lambda d: d.update(anchors=[]), "anchors"),
    (SMALL_STATIC, lambda d: d["anchors"][1].update(id=d["anchors"][0]["id"]), "anchors"),
], ids=["speed_nan", "sigma_pseudorange_inf", "visibility_empty", "visibility_string",
        "anchors_per_epoch_fraction", "seed_fraction", "anchors_empty",
        "anchor_id_repeated"])
def test_simulate_with_an_invalid_scenario_field_exits_2(tmp_path, capsys, scenario,
                                                         edit, name):
    doc = scenario_to_json(scenario)
    edit(doc)
    dump_json(doc, tmp_path / "scenario.json")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tmp_path / "scenario.json"),
                 "--out", str(out)]) == EXIT_DATA
    assert f"{name} must be" in capsys.readouterr().err
    assert not out.exists()


def _evaluate_without_a_match(tmp_path):
    """An estimates file whose only timestamp no truth sample is near."""
    est = tmp_path / "estimates.csv"
    est.write_text("t,x,y,z,map_cell,map_mass,wm_radius,support_count\n"
                   "100,0,0,0,0,1,5,1\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("t,x,y,z\n0,0,0,0\n")
    return ["evaluate", "--estimates", str(est), "--truth", str(truth)]


FAILING_RUNS = {
    "demo_zero_cell": lambda tmp_path: ["demo", "--grid-res", "0"],
    "demo_radius_below_cell": lambda tmp_path: ["demo", "--radius", "0.1"],
    "simulate_infinite_duration": lambda tmp_path: [
        "simulate", "--config",
        str(_scenario_with(tmp_path / "scenario.json", None, "duration", math.inf))],
    "evaluate_without_a_match": _evaluate_without_a_match,
}


@pytest.mark.parametrize("run", sorted(FAILING_RUNS))
def test_failing_command_creates_no_out_directory(tmp_path, capsys, run):
    out = tmp_path / "out"
    assert main([*FAILING_RUNS[run](tmp_path), "--out", str(out)]) == EXIT_DATA
    assert not out.exists()
    capsys.readouterr()


def _demo_static_inputs(tmp_path):
    """The demo's static observations and the filter file the current writer
    gives for them, as ``gridfuse demo --seed 42`` writes both."""
    scenario = make_static_scenario(n_epochs=60, cell_size=0.5, seed=42)
    write_observations(generate(scenario)[0], tmp_path / "obs.csv")
    dump_json(filter_config_to_json(FilterConfig(), scenario.grid, scenario.anchors),
              tmp_path / "filter.json")
    return tmp_path / "obs.csv", tmp_path / "filter.json"


def test_v1_filter_file_gives_the_current_file_estimates(tmp_path, capsys):
    obs, current = _demo_static_inputs(tmp_path)
    for config, out in ((FILTER_V1, "v1"), (current, "current")):
        assert main(["filter", "--config", str(config), "--observations", str(obs),
                     "--out", str(tmp_path / out)]) == EXIT_OK
    assert ((tmp_path / "v1" / "estimates.csv").read_bytes()
            == (tmp_path / "current" / "estimates.csv").read_bytes())
    capsys.readouterr()


def test_v1_filter_file_without_recentering_exits_2(tmp_path, capsys):
    """The grid always recenters, so a file asking it not to cannot run as
    it asks."""
    obs, _ = _demo_static_inputs(tmp_path)
    doc = load_json(FILTER_V1)
    doc["recenter_enabled"] = False
    with pytest.raises(DataFormatError, match="recenter"):
        filter_config_from_json(doc)
    dump_json(doc, tmp_path / "no_recenter.json")
    assert main(["filter", "--config", str(tmp_path / "no_recenter.json"),
                 "--observations", str(obs), "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert "recenter_enabled" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_demo_deterministic_outputs(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["demo", "--out", str(out1), "--seed", "42"]) == EXIT_OK
    assert main(["demo", "--out", str(out2), "--seed", "42"]) == EXIT_OK
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    expected = {"static_observations.csv", "static_truth.csv",
                "static_scenario.json", "static_estimates.csv",
                "dynamic_observations.csv", "dynamic_truth.csv",
                "dynamic_scenario.json", "dynamic_estimates.csv",
                "filter.json", "stats.csv", "ecdf.csv"}
    assert set(names) == expected
    printed = capsys.readouterr().out
    assert "static: mean=" in printed and "dynamic: mean=" in printed


def test_demo_alternate_seed_differs(tmp_path, capsys):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["demo", "--out", str(out1), "--seed", "42"]) == EXIT_OK
    assert main(["demo", "--out", str(out2), "--seed", "43"]) == EXIT_OK
    assert ((out1 / "static_observations.csv").read_bytes()
            != (out2 / "static_observations.csv").read_bytes())
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["sum", "product"])
def test_filter_on_demo_files_reproduces_demo_estimates(tmp_path, capsys, mode):
    """The filter command on the demo's written config and observations gives
    the demo's in-process static estimates, byte for byte, in both rules."""
    demo = tmp_path / "demo"
    assert main(["demo", "--out", str(demo), "--seed", "42", "--combine", mode]) == EXIT_OK
    fil = tmp_path / "fil"
    assert main(["filter", "--config", str(demo / "filter.json"),
                 "--observations", str(demo / "static_observations.csv"),
                 "--out", str(fil), "--combine", mode]) == EXIT_OK
    assert ((fil / "estimates.csv").read_bytes()
            == (demo / "static_estimates.csv").read_bytes())
    capsys.readouterr()
