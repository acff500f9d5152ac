"""Durability layer: retry policy, chaos, degraded runs, checkpoint/resume."""

import dataclasses
import json
import os

import pytest

from repro.fleet import (
    CheckpointError,
    FleetCheckpoint,
    FleetRunFailed,
    FleetRunner,
    InjectedWorkerFault,
    RetryPolicy,
    canonical_report,
    format_fleet_text,
    render_top,
    uniform_spec,
    verify_fleet_report,
    write_fleet_json,
)
from repro.fleet.durability import (
    checkpoint_entry,
    envelope_failure,
    failure_envelope,
    maybe_inject_chaos,
    normalize_chaos,
    payload_fingerprint,
    retry_with,
)


def _tiny_spec(n_nodes=3, **kwargs):
    kwargs.setdefault("duration_ms", 40.0)
    kwargs.setdefault("drain_ms", 20.0)
    return uniform_spec("tiny", "taichi", n_nodes, **kwargs)


def _with(spec, **kwargs):
    return dataclasses.replace(spec, nodes=list(spec.nodes), **kwargs)


def _canonical_json(report):
    return json.dumps(canonical_report(report), sort_keys=True)


# -- RetryPolicy ---------------------------------------------------------------


def test_retry_policy_defaults_mean_no_retry():
    policy = RetryPolicy()
    assert policy.max_attempts == 1
    assert policy.delay_s(1) == 0.0
    assert policy.delay_s(5) == 0.0
    assert policy.timeout_s is None


def test_retry_policy_backoff_doubles():
    policy = RetryPolicy(max_attempts=4, backoff_s=0.5)
    assert policy.delay_s(1) == 0.0          # first attempt never waits
    assert policy.delay_s(2) == 0.5
    assert policy.delay_s(3) == 1.0
    assert policy.delay_s(4) == 2.0


@pytest.mark.parametrize("bad", [
    {"max_attempts": 0},
    {"backoff_s": -1.0},
    {"backoff_s": "fast"},
    {"timeout_s": 0.0},
    {"max_attempts": 2, "jitter_s": 0.1},   # unknown field
])
def test_retry_policy_validation(bad):
    with pytest.raises(ValueError):
        RetryPolicy.from_value(bad)


def test_retry_policy_round_trips_sparsely():
    assert RetryPolicy().to_dict() == {"max_attempts": 1}
    assert RetryPolicy(max_attempts=3, backoff_s=0.1).to_dict() == {
        "max_attempts": 3, "backoff_s": 0.1}
    policy = RetryPolicy(max_attempts=3, backoff_s=0.1, timeout_s=5.0)
    assert RetryPolicy.from_value(policy.to_dict()) == policy
    assert RetryPolicy.from_value(None) == RetryPolicy()
    assert RetryPolicy.from_value(policy) is policy
    with pytest.raises(ValueError, match="retry must be"):
        RetryPolicy.from_value("twice")


def test_retry_with_overrides():
    base = RetryPolicy(max_attempts=2, backoff_s=0.2)
    bumped = retry_with(base, max_attempts=5, timeout_s=1.0)
    assert bumped.max_attempts == 5
    assert bumped.backoff_s == 0.2
    assert bumped.timeout_s == 1.0
    assert retry_with(base) is base


# -- Envelopes and chaos -------------------------------------------------------


def test_failure_envelope_shape():
    try:
        raise ValueError("kaboom")
    except ValueError as exc:
        envelope = failure_envelope(exc)
    failure = envelope_failure(envelope)
    assert list(failure) == ["kind", "error", "traceback"]
    assert failure["kind"] == "exception"
    assert failure["error"] == "ValueError('kaboom')"
    assert any("kaboom" in line for line in failure["traceback"])
    assert envelope_failure({"node_id": "x"}) is None
    assert envelope_failure("nope") is None


def test_normalize_chaos_forms():
    assert normalize_chaos(None) is None
    out = normalize_chaos({"b": 2, "a": {"fail_attempts": -1,
                                         "kind": "crash"}})
    assert list(out) == ["a", "b"]  # canonical sorted order
    assert out["a"] == {"fail_attempts": -1, "kind": "crash"}
    assert out["b"] == {"fail_attempts": 2, "kind": "exception"}
    with pytest.raises(ValueError, match="must be a dict"):
        normalize_chaos(["a"])
    with pytest.raises(ValueError, match="int or a dict"):
        normalize_chaos({"a": "always"})
    with pytest.raises(ValueError, match="kind"):
        normalize_chaos({"a": {"kind": "meteor"}})


def test_maybe_inject_chaos_counts_attempts():
    entry = normalize_chaos({"n": 2})["n"]
    with pytest.raises(InjectedWorkerFault):
        maybe_inject_chaos(entry, "n", 1)
    with pytest.raises(InjectedWorkerFault):
        maybe_inject_chaos(entry, "n", 2)
    maybe_inject_chaos(entry, "n", 3)       # past the budget: quiet
    maybe_inject_chaos(None, "n", 1)        # no entry: quiet
    forever = normalize_chaos({"n": -1})["n"]
    with pytest.raises(InjectedWorkerFault):
        maybe_inject_chaos(forever, "n", 99)


def test_crash_kind_degrades_to_exception_serially():
    entry = normalize_chaos({"n": {"fail_attempts": -1, "kind": "crash"}})["n"]
    # parallel=False must never os._exit the calling process.
    with pytest.raises(InjectedWorkerFault):
        maybe_inject_chaos(entry, "n", 1, parallel=False)


# -- Degraded fleet runs -------------------------------------------------------


def _degraded_spec(n_nodes=3):
    spec = _tiny_spec(n_nodes)
    # node-01 fails forever; node-02 fails once and recovers on retry.
    return _with(spec, chaos={"node-01": -1, "node-02": 1},
                 retry={"max_attempts": 2})


def test_degraded_run_contains_failures():
    report = FleetRunner(_degraded_spec(), scale=0.5,
                         allow_failures=True).run()
    aggregate = report["aggregate"]
    assert aggregate["degraded"] is True
    assert aggregate["coverage"] == {"expected": 3, "completed": 2,
                                     "fraction": 2 / 3}
    (failure,) = aggregate["failed_nodes"]
    assert failure["node_id"] == "node-01"
    assert failure["kind"] == "exception"
    assert failure["attempts"] == 2
    assert "InjectedWorkerFault" in failure["error"]
    assert failure["traceback"]
    assert [node["node_id"] for node in report["nodes"]] == [
        "node-00", "node-02"]
    assert report["timing"]["retried"] == {"node-02": 2}
    assert verify_fleet_report(report) == []


def test_degraded_run_raises_without_allow_failures():
    with pytest.raises(FleetRunFailed, match="node-01") as excinfo:
        FleetRunner(_degraded_spec(), scale=0.5).run()
    # The degraded report still rode along for rendering/salvage.
    report = excinfo.value.report
    assert report["aggregate"]["degraded"] is True
    assert excinfo.value.failures[0]["node_id"] == "node-01"
    assert "--allow-failures" in str(excinfo.value)


def test_healthy_report_has_no_degraded_keys():
    # Backward compatibility: durability must not change healthy output.
    report = FleetRunner(_tiny_spec(2), scale=0.5).run()
    aggregate = report["aggregate"]
    assert "degraded" not in aggregate
    assert "coverage" not in aggregate
    assert "failed_nodes" not in aggregate
    assert verify_fleet_report(report) == []


def test_degraded_report_renders(tmp_path):
    report = FleetRunner(_degraded_spec(), scale=0.5,
                         allow_failures=True).run()
    text = format_fleet_text(report)
    assert "DEGRADED: 1 of 3 nodes failed" in text
    assert "node-01" in text
    assert "1 node(s) retried" in text
    path = write_fleet_json(str(tmp_path / "fleet.json"), report)
    top = render_top(path)
    assert "failed nodes: 1" in top
    assert "coverage 66.7%" in top
    assert "all nodes healthy" not in top


def test_verify_fleet_report_detects_tampering():
    report = FleetRunner(_degraded_spec(), scale=0.5,
                         allow_failures=True).run()
    assert verify_fleet_report(report) == []
    broken = json.loads(json.dumps(report))
    broken["aggregate"]["coverage"]["completed"] = 3
    assert any("coverage" in problem
               for problem in verify_fleet_report(broken))
    broken = json.loads(json.dumps(report))
    broken["aggregate"]["failed_nodes"][0]["node_id"] = "node-00"
    assert any("both failed and survived" in problem
               for problem in verify_fleet_report(broken))
    broken = json.loads(json.dumps(report))
    del broken["aggregate"]["degraded"]
    assert any("degraded flag" in problem
               for problem in verify_fleet_report(broken))


def test_pool_crash_is_contained_and_retried():
    # n0's first attempt hard-exits its worker; the pool is rebuilt, every
    # node in flight is charged a crash attempt, and the retries succeed.
    spec = _tiny_spec(2)
    crashed = FleetRunner(_with(spec, chaos={"node-00": {
        "fail_attempts": 1, "kind": "crash"}}, retry={"max_attempts": 2}),
        jobs=2, scale=0.5).run()
    clean = FleetRunner(spec, jobs=2, scale=0.5).run()
    assert "failed_nodes" not in crashed["aggregate"]
    assert crashed["timing"]["retried"]["node-00"] == 2
    assert crashed["nodes"] == clean["nodes"]


def test_pool_timeout_fails_every_node_and_returns():
    report = FleetRunner(_with(_tiny_spec(2), retry={"timeout_s": 0.01}),
                         jobs=2, scale=0.5, allow_failures=True).run()
    failed = report["aggregate"]["failed_nodes"]
    assert [entry["node_id"] for entry in failed] == ["node-00", "node-01"]
    assert {entry["kind"] for entry in failed} == {"timeout"}
    assert report["nodes"] == []
    assert verify_fleet_report(report) == []


# -- Checkpoint / resume -------------------------------------------------------


def test_checkpoint_journal_is_atomic_per_node(tmp_path):
    checkpoint = FleetCheckpoint(str(tmp_path / "ckpt"))
    entry = checkpoint_entry("node-00", "abcd", summary={"node_id":
                                                         "node-00"})
    path = checkpoint.journal(entry)
    assert path.endswith("node-00.node.json")
    assert not os.path.exists(path + ".tmp")
    assert checkpoint.load() == {"node-00": entry}
    with pytest.raises(ValueError, match="exactly one"):
        checkpoint_entry("node-00", "abcd")
    with pytest.raises(ValueError, match="exactly one"):
        checkpoint_entry("node-00", "abcd", summary={}, failure={})


def test_nonempty_checkpoint_dir_requires_resume(tmp_path):
    spec = _tiny_spec(2)
    checkpoint_dir = str(tmp_path / "ckpt")
    FleetRunner(spec, scale=0.5, checkpoint_dir=checkpoint_dir).run()
    with pytest.raises(CheckpointError, match="--resume"):
        FleetRunner(spec, scale=0.5, checkpoint_dir=checkpoint_dir).run()


def test_resume_rejects_fingerprint_mismatch(tmp_path):
    spec = _tiny_spec(2)
    checkpoint_dir = str(tmp_path / "ckpt")
    FleetRunner(spec, scale=0.5, checkpoint_dir=checkpoint_dir).run()
    with pytest.raises(CheckpointError, match="different spec"):
        FleetRunner(spec.with_seed(99), scale=0.5,
                    checkpoint_dir=checkpoint_dir, resume=True).run()
    # A different scale changes duration_ns, hence the fingerprint too.
    with pytest.raises(CheckpointError, match="different spec"):
        FleetRunner(spec, scale=0.25, checkpoint_dir=checkpoint_dir,
                    resume=True).run()


def test_resume_ignores_unknown_journal_entries(tmp_path):
    # A journal from a *larger* spec resumes cleanly into a subset run:
    # extra entries are ignored, matching ones are reused.
    spec = _tiny_spec(3)
    checkpoint_dir = str(tmp_path / "ckpt")
    FleetRunner(spec, scale=0.5, checkpoint_dir=checkpoint_dir).run()
    subset = FleetRunner(spec.subset(2), scale=0.5,
                         checkpoint_dir=checkpoint_dir, resume=True).run()
    direct = FleetRunner(spec.subset(2), scale=0.5).run()
    assert _canonical_json(subset) == _canonical_json(direct)


def test_fingerprint_ignores_host_paths():
    spec = _tiny_spec(1)
    plain = FleetRunner(spec, scale=0.5).payloads()[0]
    captured = FleetRunner(spec, scale=0.5,
                           capture_dir="/tmp/elsewhere").payloads()[0]
    assert payload_fingerprint(plain) == payload_fingerprint(captured)
    reseeded = FleetRunner(spec.with_seed(7), scale=0.5).payloads()[0]
    assert payload_fingerprint(plain) != payload_fingerprint(reseeded)
