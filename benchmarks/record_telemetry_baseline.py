"""Record the telemetry overhead + wire-size baseline (BENCH_telemetry.json).

Two claims back the streaming-telemetry design, and this script measures
both on the current machine:

* **sampling overhead** — a soak with a 10 ms telemetry cadence must run
  within a few percent of the same soak with telemetry off (interleaved
  best-of-N, the same :mod:`benchmarks.overhead` helper as
  ``test_bench_telemetry.py``).
* **wire size** — a sketch-shipping fleet node summary must be far
  smaller than one carrying raw sample arrays; this is what lets a
  pod-scale fleet aggregate without shipping O(samples) per node.

Usage::

    PYTHONPATH=src python -m benchmarks.record_telemetry_baseline \
        [--out BENCH_telemetry.json] [--skip-pod]

The committed baseline is informational (machines differ); the enforced
gate lives in ``benchmarks/test_bench_telemetry.py`` and CI.
"""

import argparse
import dataclasses
import json
import platform

from benchmarks.overhead import interleaved_best, soak
from repro.obs.telemetry import TelemetryConfig


def measure_overhead(rounds=5):
    config = TelemetryConfig(interval_ms=10.0)
    (_, events), _, best_off, best_on = interleaved_best(
        lambda: soak("bench-telemetry"),
        lambda: soak("bench-telemetry", telemetry=config), rounds=rounds)
    off_rate = events / best_off
    on_rate = events / best_on
    return {
        "rounds": rounds,
        "events_processed": events,
        "events_per_second_off": round(off_rate),
        "events_per_second_on": round(on_rate),
        "overhead_pct": round(100.0 * (1.0 - on_rate / off_rate), 2),
    }


def measure_wire_size(preset, n_nodes, scale):
    from repro.fleet import FleetRunner, FleetSpec

    spec = FleetSpec.preset(preset).subset(n_nodes)
    sizes = {}
    for label, raw in (("sketch", False), ("raw", True)):
        report = FleetRunner(dataclasses.replace(spec, raw_samples=raw),
                             jobs=1, scale=scale).run()
        sizes[label] = sum(len(json.dumps(node, sort_keys=True))
                           for node in report["nodes"])
    return {
        "preset": preset,
        "nodes": n_nodes,
        "scale": scale,
        "node_summary_bytes_sketch": sizes["sketch"],
        "node_summary_bytes_raw": sizes["raw"],
        "compression_ratio": round(sizes["raw"] / sizes["sketch"], 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_telemetry.json")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--skip-pod", action="store_true",
                        help="skip the 64-node pod wire-size run (slow)")
    args = parser.parse_args(argv)

    print("measuring soak overhead (interleaved best-of-%d)..." % args.rounds)
    overhead = measure_overhead(rounds=args.rounds)
    print(f"  off {overhead['events_per_second_off']} ev/s, "
          f"on {overhead['events_per_second_on']} ev/s "
          f"({overhead['overhead_pct']:+.1f}%)")

    wire = [measure_wire_size("rack", 8, 0.1)]
    print(f"  rack: {wire[0]['node_summary_bytes_raw']}B raw -> "
          f"{wire[0]['node_summary_bytes_sketch']}B sketch "
          f"({wire[0]['compression_ratio']}x)")
    if not args.skip_pod:
        print("measuring pod wire size (64 nodes, reduced scale)...")
        wire.append(measure_wire_size("pod", 64, 0.05))
        print(f"  pod: {wire[1]['node_summary_bytes_raw']}B raw -> "
              f"{wire[1]['node_summary_bytes_sketch']}B sketch "
              f"({wire[1]['compression_ratio']}x)")

    baseline = {
        "benchmark": "telemetry",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "overhead": overhead,
        "wire_size": wire,
        "gate": {"max_overhead_pct": 5.0,
                 "enforced_by": "benchmarks/test_bench_telemetry.py"},
    }
    with open(args.out, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
