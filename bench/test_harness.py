"""Self-test of the benchmark harness at smoke sizes: ``pytest bench/``.

Three smoke invocations of ``bench/run.py``, bounded to 60 s in total by
their subprocess timeouts.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _bench(tmp_path, label, *extra, timeout):
    out = tmp_path / f"{label}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke", "--reps",
         "1", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    return [_bench(tmp, label, "--trace", "1", timeout=25)
            for label in ("first", "second")]


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_every_listed_metric_is_emitted_with_its_unit(two_runs, contract):
    proc, report = two_runs[0]
    assert proc.returncode == 0, proc.stderr
    assert sorted(report["workloads"]) == sorted(
        workload["name"] for workload in contract["workloads"])
    for name, block in report["workloads"].items():
        for section, listed in (("metrics", "end_to_end"),
                                ("per_layer", "per_layer")):
            units = {key: metric["unit"]
                     for key, metric in block[section].items()}
            assert units == {metric["name"]: metric["unit"]
                             for metric in contract[listed]}, (name, section)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] and last["failed"] == 0


def test_calls_and_digests_repeat_exactly(two_runs):
    (_, first), (_, second) = two_runs
    for name, block in first["workloads"].items():
        other = second["workloads"][name]
        assert block["digests"] == other["digests"], name
        traced = [child for child in block["children"]
                  if child["mode"] == "profile"]
        assert traced, name
        assert [child["digest"] for child in traced] == \
            [block["digests"][str(child["seed"])] for child in traced], name

        def counts(layers):
            return {key: metric["value"] for key, metric in layers.items()
                    if metric["unit"] == "count"}

        assert counts(block["per_layer"]) == counts(other["per_layer"]), name


def test_obs_costs_nothing_when_off(two_runs):
    _, report = two_runs[0]
    for name, block in report["workloads"].items():
        if name != "fleet-rack-obs":
            assert block["per_layer"]["obs.self_pct"]["value"] < 0.5, name


def test_tampered_pin_fails_every_run(tmp_path):
    with open(os.path.join(BENCH, "workloads", "pinned.json")) as handle:
        pins = json.load(handle)
    pins["smoke"]["soak-taichi"]["0"] = "0" * 64
    tampered = tmp_path / "pinned.json"
    tampered.write_text(json.dumps(pins))
    proc, report = _bench(tmp_path, "tampered", "--workload", "soak-taichi",
                          "--trace", "0", "--pinned", str(tampered),
                          timeout=10)
    assert proc.returncode != 0
    assert report["workloads"]["soak-taichi"]["error_pct"] == 100
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
