"""Shared soak timing for the tenancy, telemetry and span overhead gates.

Each gate times one short soak with a feature off and on, interleaved
so thermal drift and background noise hit both arms equally.
"""

import time

from repro.obs import observe
from repro.scenario import Scenario, run_soak
from repro.sim.units import MILLISECONDS


def soak(label, scenario=None, **soak_kwargs):
    """One 60 + 20 ms soak under a fresh observability session.

    Returns ``(summary, events)``: the soak summary and the number of
    events processed, summed over every ``sim.engine`` metrics source.
    """
    with observe() as session:
        summary = run_soak(scenario or Scenario(arm="taichi"), seed=0,
                           duration_ns=60 * MILLISECONDS,
                           drain_ns=20 * MILLISECONDS,
                           label=label, **soak_kwargs)
    snapshot = session.metrics.snapshot()
    events = sum(data["events_processed"]
                 for name, data in snapshot["sources"].items()
                 if name.split("#")[0] == "sim.engine")
    return summary, events


def interleaved_best(run_off, run_on, rounds=5):
    """Time ``run_off`` and ``run_on`` alternately, ``rounds`` times each.

    Returns ``(off, on, best_off, best_on)``: each arm's last result and
    its best wall time in seconds.
    """
    off_times, on_times = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        off = run_off()
        off_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        on = run_on()
        on_times.append(time.perf_counter() - t0)
    return off, on, min(off_times), min(on_times)
