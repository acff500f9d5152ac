"""Record the DES engine fast-path baseline (BENCH_engine.json).

The engine fast path claims an **idle fast-forward**: replacing
per-poll wakeups with one analytic timeout must multiply wall throughput
on idle-heavy soaks while the summary stays byte-identical.  This script
measures it per arm (``taichi``, whose batched scheduler already
amortizes polls, and ``static``, the poll-every-tick worst case) as
interleaved best-of-N fast vs stepped on the current machine.

Usage::

    PYTHONPATH=src python benchmarks/record_engine_baseline.py \
        [--out BENCH_engine.json] [--rounds N]

The committed baseline is informational (machines differ); the enforced
gate lives in ``benchmarks/test_bench_engine.py`` and CI.
"""

import argparse
import json
import platform
import time

from repro.scenario import Scenario, run_soak
from repro.sim import EngineConfig
from repro.sim.units import MILLISECONDS

_DURATION_NS = 15 * MILLISECONDS
_DRAIN_NS = 5 * MILLISECONDS


def _soak(arm, engine):
    scenario = Scenario(arm=arm, knobs={"engine": engine})
    t0 = time.perf_counter()
    summary = run_soak(scenario, seed=0, duration_ns=_DURATION_NS,
                       drain_ns=_DRAIN_NS, label="bench-engine")
    wall = time.perf_counter() - t0
    return summary, wall


def measure_fast_forward(arm, rounds):
    """Interleaved fast-vs-stepped best-of-N for one arm."""
    fast_times, stepped_times = [], []
    fast_engine = stepped_engine = None
    identical = True
    for _ in range(rounds):
        fast_summary, wall = _soak(arm, EngineConfig(fast_forward=True))
        fast_times.append(wall)
        stepped_summary, wall = _soak(arm, EngineConfig(fast_forward=False))
        stepped_times.append(wall)
        fast_engine = fast_summary.pop("engine")
        stepped_engine = stepped_summary.pop("engine")
        identical = identical and (
            json.dumps(fast_summary, sort_keys=True, default=str)
            == json.dumps(stepped_summary, sort_keys=True, default=str))
    best_fast, best_stepped = min(fast_times), min(stepped_times)
    simulated = (fast_engine["events_processed"]
                 + fast_engine["events_skipped"])
    return {
        "arm": arm,
        "rounds": rounds,
        "summary_identical": identical,
        "events_processed_fast": fast_engine["events_processed"],
        "events_skipped_fast": fast_engine["events_skipped"],
        "fast_forward_windows": fast_engine["fast_forward_windows"],
        "skipped_ratio": fast_engine["skipped_ratio"],
        "events_processed_stepped": stepped_engine["events_processed"],
        "events_per_second_stepped": round(
            stepped_engine["events_processed"] / best_stepped),
        "effective_events_per_second_fast": round(simulated / best_fast),
        "speedup": round(best_stepped / best_fast, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    arms = []
    for arm in ("taichi", "static"):
        print(f"measuring fast-forward on the {arm} arm "
              f"(interleaved best-of-{args.rounds})...")
        result = measure_fast_forward(arm, args.rounds)
        arms.append(result)
        print(f"  {result['effective_events_per_second_fast'] / 1e6:.2f}M "
              f"effective ev/s fast vs "
              f"{result['events_per_second_stepped'] / 1e3:.0f}k ev/s "
              f"stepped ({result['speedup']}x, skipped ratio "
              f"{result['skipped_ratio']:.1%}, identical="
              f"{result['summary_identical']})")

    baseline = {
        "benchmark": "engine",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fast_forward": arms,
        "gate": {"min_speedup": 3.0,
                 "enforced_by": "benchmarks/test_bench_engine.py"},
    }
    with open(args.out, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
