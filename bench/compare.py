#!/usr/bin/env python3
"""Compare two benchmark results: A (the parent) against B (the change).

    python bench/compare.py A.json B.json
    python bench/compare.py parent/ change/ --claim wall_s@soak-taichi

Each side is a ``bench/run.py --out`` file or a directory of them; a
directory's samples are concatenated in file-name order, so ten
alternating ``--reps 1`` runs per side make ten pairs.  For every
workload and end-to-end metric in BENCHMARK.json it prints each side's
median, quartiles and n, B's change against the metric's bound, and a
verdict:

* ``worse`` / ``better``: the medians differ by more than the bound;
* ``same``: they differ by less;
* ``unresolved``: either side's quartile spread exceeds the bound, unless
  every B sample beats (or loses to) every A sample.

``--claim metric@workload`` applies the gain rule: at least ten pairs, B
wins at least nine tenths of them (ties count for neither side), and the
medians differ by more than A's quartile spread.  Sample i of A pairs
with sample i of B; a pair with a failed member is dropped, and the claim
fails when the two sides hold different numbers of samples.  The exit
code is 1 when the claim fails.  Finally the per-layer ``.calls`` counts
that differ and every non-zero ``.self_pct`` are listed side by side.
"""

import argparse
import json
import os
import sys

from run import ROOT, spread as quartiles


def load_side(path):
    """``{workload: {"samples": {metric: [...]}, "per_layer": {...}}}``.

    Samples keep their order and hold ``None`` where a run failed.
    """
    paths = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".json")] if os.path.isdir(path) else [path])
    side = {}
    for file_path in paths:
        with open(file_path) as handle:
            report = json.load(handle)
        for name, block in report["workloads"].items():
            entry = side.setdefault(name, {"samples": {}, "per_layer": {}})
            for key, values in block["samples"].items():
                entry["samples"].setdefault(key, []).extend(values)
            entry["per_layer"] = entry["per_layer"] or block["per_layer"]
    return side


def verdict(a, b, bound, lower_is_better):
    """``(relative worsening of B's median, verdict)``."""
    med_a, q1_a, q3_a = quartiles(a)
    med_b, q1_b, q3_b = quartiles(b)
    sign = 1 if lower_is_better else -1
    worsening = sign * (med_b - med_a) / med_a
    noise = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
    if noise > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return worsening, "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return worsening, "worse"
        return worsening, "unresolved"
    if worsening > bound:
        return worsening, "worse"
    if worsening < -bound:
        return worsening, "better"
    return worsening, "same"


def claim(a, b, lower_is_better):
    """``(holds, message)`` for the ten-pair, nine-tenths-wins rule.

    ``a`` and ``b`` are the two sides' samples in order, ``None`` where a
    run failed.
    """
    if len(a) != len(b):
        return False, (f"A has {len(a)} samples and B {len(b)}: "
                       f"they do not pair up")
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    if not pairs:
        return False, "no pair where both runs succeeded"
    wins = sum(1 for x, y in pairs if (y < x if lower_is_better else y > x))
    med_a, q1_a, q3_a = quartiles([x for x, _ in pairs])
    med_b = quartiles([y for _, y in pairs])[0]
    improved = med_b < med_a if lower_is_better else med_b > med_a
    holds = (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and improved
             and abs(med_b - med_a) > q3_a - q1_a)
    dropped = len(a) - len(pairs)
    return holds, (f"{len(pairs)} pairs ({dropped} dropped), B wins {wins}; "
                   f"median {med_a:.6g} -> {med_b:.6g}, A quartile spread "
                   f"{q3_a - q1_a:.6g}: {'holds' if holds else 'not met'}")


def _fmt(values):
    median, q1, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="parent result file or directory")
    parser.add_argument("b", help="change result file or directory")
    parser.add_argument("--claim", help="metric@workload to test for a gain")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    side_a, side_b = load_side(args.a), load_side(args.b)
    shared = [name for name in side_a if name in side_b]

    for name in shared:
        for metric in metrics:
            key = metric["name"]
            a = [x for x in side_a[name]["samples"][key] if x is not None]
            b = [y for y in side_b[name]["samples"][key] if y is not None]
            if not a or not b:
                print(f"{name} {key}: no successful run on one side")
                continue
            worsening, word = verdict(a, b, metric["bound"],
                                      metric["better"] == "lower")
            print(f"{name} {key} A {_fmt(a)}  B {_fmt(b)}  "
                  f"worse by {100 * worsening:+.1f}% "
                  f"(bound {100 * metric['bound']:.0f}%)  {word}")

    status = 0
    if args.claim:
        key, _, name = args.claim.partition("@")
        metric = next((m for m in metrics if m["name"] == key), None)
        if metric is None or name not in shared:
            parser.error(f"--claim {args.claim}: unknown metric or workload")
        holds, message = claim(side_a[name]["samples"][key],
                               side_b[name]["samples"][key],
                               metric["better"] == "lower")
        print(f"claim {args.claim}: {message}")
        status = 0 if holds else 1

    for name in shared:
        layers_a = side_a[name]["per_layer"]
        layers_b = side_b[name]["per_layer"]
        for key in sorted(set(layers_a) & set(layers_b)):
            x, y = layers_a[key]["value"], layers_b[key]["value"]
            if key.endswith(".calls") and x != y:
                print(f"{name} {key} {x} -> {y} ({y - x:+d})")
            elif key.endswith(".self_pct") and (x or y):
                print(f"{name} {key} {x:.2f} -> {y:.2f} ({y - x:+.2f} pts)")
    return status


if __name__ == "__main__":
    sys.exit(main())
