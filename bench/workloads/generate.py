"""Write the benchmark's workload inputs with the program's own serializers.

    PYTHONPATH=src python bench/workloads/generate.py

Rewrites ``soak-taichi.json``, ``soak-tenants.json`` and
``fleet-rack-obs.json`` next to this file.  ``bench/run.py`` reads them
back through the public loaders (``load_scenario``, ``load_fleet_spec``);
run sizes and pinned digests live in ``workloads.json`` and
``pinned.json``.  Regenerating an input changes what the benchmark
measures, so it needs fresh pins (``bench/run.py --pin``).
"""

import dataclasses
import os

from repro.experiments.ext_multitenant import _FAULTS, _tenants
from repro.fleet import FleetSpec
from repro.scenario import Scenario

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    # The busy single-tenant data-plane path, default WorkloadMix.
    Scenario(arm="taichi", traffic="steady").to_json(
        os.path.join(HERE, "soak-taichi.json"))
    # ext_multitenant's isolation-on cell: a weight-4 victim and three
    # spiky noisy neighbours riding out a probe outage, degradation on.
    Scenario(arm="taichi", traffic="bursty", faults=_FAULTS,
             degradation=True, tenants=_tenants(),
             tenant_isolation=True).to_json(
        os.path.join(HERE, "soak-tenants.json"))
    # The 8-node heterogeneous rack with causal request tracing on.
    dataclasses.replace(FleetSpec.preset("rack"), spans=True).to_json(
        os.path.join(HERE, "fleet-rack-obs.json"))


if __name__ == "__main__":
    main()
