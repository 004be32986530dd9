"""End-to-end checks of the Gaussian motion model against simulated truth.

Both runs step the engine with the default config and score the fixes after
the first 20%, once the filter has converged. Each test failed with the polar
step kernel that preceded the Gaussian one.
"""

import numpy as np

from gridfuse import FilterConfig, FusionEngine, Odometry, simulator
from gridfuse.engine import _tie_key


def converged_fixes(scenario):
    """Step the engine through the scenario; yield (field, estimate, truth
    position) at each fix after the first 20% of fixes."""
    events, truth = simulator.generate(scenario)
    eng = FusionEngine(scenario.grid, scenario.anchors, FilterConfig())
    warmup = sum(not isinstance(e.payload, Odometry) for e in events) // 5
    fixes = 0
    for obs in sorted(events, key=_tie_key):
        est = eng.step(obs)
        if est is None:
            continue
        fixes += 1
        if fixes > warmup:
            k = int(np.argmin(np.abs(truth.times - est.timestamp)))
            yield eng.field, est, truth.positions[k]
    assert eng.reinit_count == 0 and fixes >= 100


def in_hpd(field, position, level=0.95) -> bool:
    """True when the cell holding ``position`` lies in the smallest set of
    cells that carries ``level`` of the mass."""
    spec = field.spec
    c = np.rint((np.asarray(position[:2]) - spec.origin) / spec.cell_size).astype(int)
    if np.any(c < 0) or np.any(c >= spec.extent):
        return False
    ranked = np.sort(field.mass)[::-1]
    k = min(int(np.searchsorted(np.cumsum(ranked), level)), len(ranked) - 1)
    return bool(field.mass[spec.coords_to_index(tuple(c))] >= ranked[k])


def test_static_receiver_does_not_drift_along_its_heading():
    """Static odometry reports heading 0 and a speed near 0. A kernel that
    kept its mass in the heading half-plane biased x by +0.72 m here; the
    Gaussian step has zero mean at zero speed (+0.05 m measured)."""
    scenario = simulator.make_static_scenario(n_epochs=300, cell_size=0.2, seed=0)
    x_errors = [est.position[0] - truth[0]
                for _, est, truth in converged_fixes(scenario)]
    assert abs(np.mean(x_errors)) <= 0.2


def test_dynamic_truth_cell_in_95_percent_region():
    """Share of fixes whose truth cell lies in the 95% highest-density region:
    0.54 with the polar kernel, 0.83 measured with the Gaussian step."""
    scenario = simulator.make_dynamic_scenario(n_gnss_epochs=120, seed=0)
    covered = [in_hpd(field, truth) for field, _, truth in converged_fixes(scenario)]
    assert np.mean(covered) >= 0.75
