"""Every registered experiment holds every paper shape band.

The bands live in ``repro.experiments.validate.EXPECTATIONS``; this test
only picks a scale.  Experiments that finish in about a second run at the
full configuration (1.0); the rest run reduced, at scales where every band
still holds.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.validate import EXPECTATIONS

SCALES = {
    "ablation_slice": 0.2,
    "ablation_threshold": 0.2,
    "ext_audit": 1.0,
    "ext_cache_isolation": 1.0,
    "ext_dp_boost": 0.1,
    "ext_fault_resilience": 0.05,
    "ext_fleet_durability": 0.05,
    "ext_fleet_scale": 0.05,
    "ext_multitenant": 0.05,
    "ext_preemptible_kernel": 1.0,
    "ext_probe_fusion": 0.25,
    "ext_production_soak": 0.2,
    "ext_window_sweep": 0.2,
    "fig11": 0.34,
    "fig12": 0.1,
    "fig13": 0.1,
    "fig14": 0.1,
    "fig15": 0.1,
    "fig16": 0.1,
    "fig17": 1.0,
    "fig2": 1.0,
    "fig3": 1.0,
    "fig4": 1.0,
    "fig5": 1.0,
    "fig6": 1.0,
    "table1": 1.0,
    "table2": 0.1,
    "table5": 1.0,
}


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_paper_shape(exp_id):
    result = run_experiment(exp_id, scale=SCALES[exp_id], seed=0)
    failing = [expectation.description
               for expectation in EXPECTATIONS[exp_id]
               if not expectation.evaluate(result)]
    assert not failing, f"{exp_id} at scale {SCALES[exp_id]}: {failing}"
