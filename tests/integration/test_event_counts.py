"""Pin the engine's event counts on a short soak and a small fleet.

Host-side optimisations of the executor and the event primitives must be
event-neutral: every event created in the same order, at the same time,
with the same priority.  Simulated results can stay byte-identical while
an engine change adds or drops events (a relay hop collapsed, a timer no
longer scheduled), and that still breaks the repository benchmark:
fleet node metrics carry ``engine_events`` and ``engine_events_skipped``
inside the pinned ``fleet-rack-obs`` digest, so an engine change that
creates or drops events fails ``bench/`` even when nothing simulated
moved.  This test reports that failure by name, in the tier-1 suite,
before the benchmark does.  A change meant to alter event counts must
update these pins and re-pin the benchmark in the same change.
"""

from repro.fleet import FleetSpec, run_fleet
from repro.scenario import Scenario, run_soak
from repro.sim.units import MILLISECONDS

#: ``(events_processed, events_skipped)`` for a 40+10 ms taichi soak.
SOAK_EVENTS = (35_871, 121_869)

#: node id -> ``(engine_events, engine_events_skipped)`` for two rack
#: nodes at scale 0.075.
FLEET_EVENTS = {
    "rack-00": (32_528, 129_644),
    "rack-01": (36_350, 107_211),
}


def test_taichi_soak_event_counts_are_pinned():
    summary = run_soak(Scenario(arm="taichi"), seed=0,
                       duration_ns=40 * MILLISECONDS,
                       drain_ns=10 * MILLISECONDS)
    engine = summary["engine"]
    assert (engine["events_processed"],
            engine["events_skipped"]) == SOAK_EVENTS


def test_rack_fleet_event_counts_are_pinned():
    report = run_fleet(FleetSpec.preset("rack").subset(2), jobs=1,
                       scale=0.075)
    counts = {node["node_id"]: (node["metrics"]["engine_events"],
                                node["metrics"]["engine_events_skipped"])
              for node in report["nodes"]}
    assert counts == FLEET_EVENTS
