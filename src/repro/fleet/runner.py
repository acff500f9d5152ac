"""The fleet runner: fan nodes out across processes, merge the results.

Each node is an independent single-board simulation, so a fleet is
embarrassingly parallel: ``FleetRunner`` ships one picklable payload per
node through :func:`~repro.fleet.pool.pool_outcomes` and re-assembles
the summaries in spec order.  Wall-clock therefore scales with available
cores (``--jobs``) instead of fleet size — the first subsystem in this
repo where it does.

Durability: node failures are *contained*.  A node that fails every
attempt of its :class:`~repro.fleet.durability.RetryPolicy` becomes a
typed entry in the aggregate's ``failed_nodes`` table instead of
destroying the run; retried nodes re-run from the same
:func:`~repro.sim.rng.derive_seed` payload, so a retry that succeeds is
byte-identical to a first-try success.  With a ``checkpoint_dir`` the
runner journals each node's outcome as it lands (atomic per-node
files); ``resume=True`` skips journaled nodes, and the resumed run's
canonical JSON is byte-identical to an uninterrupted one.  Unless
``allow_failures`` is set, terminal failures raise
:class:`~repro.fleet.durability.FleetRunFailed` — *after* the full
fleet ran and journaled, with the degraded report attached.

Determinism: node seeds come from :func:`~repro.sim.rng.derive_seed`
(pure function of the fleet root seed and the node id), results are
ordered by the spec (not by completion), and everything wall-clock lives
under the report's ``timing`` key, which :func:`write_fleet_json`
excludes — so the JSON report is byte-identical for ``--jobs 1`` and
``--jobs 4``, with or without an interruption in between.
"""

import os
import time

from repro.fleet.aggregate import aggregate_fleet
from repro.fleet.durability import (
    CheckpointError,
    FleetCheckpoint,
    FleetRunFailed,
    RetryPolicy,
    checkpoint_entry,
    envelope_failure,
    payload_fingerprint,
)
from repro.fleet.node import run_node
from repro.fleet.pool import pool_outcomes
from repro.sim.units import MILLISECONDS

#: Scaled-duration floors: a shrunk CI fleet still has to clear warmup
#: and let a few VM storms land.
_MIN_DURATION_NS = 30 * MILLISECONDS
_MIN_DRAIN_NS = 20 * MILLISECONDS


def _prepare_payload(payload, attempt, parallel):
    """Per-attempt worker payload: same node work, new attempt number."""
    return {**payload, "attempt": attempt, "parallel": parallel}


def _failed_node(outcome):
    """A terminal failure record named by its node and attempt count."""
    failure = outcome.failure
    return {"node_id": outcome.label, "kind": failure["kind"],
            "attempts": outcome.attempts, "error": failure["error"],
            "traceback": failure["traceback"]}


class FleetRunner:
    """Run a :class:`~repro.fleet.spec.FleetSpec` at a given parallelism."""

    def __init__(self, spec, jobs=1, scale=1.0, capture_dir=None,
                 check_invariants=False, telemetry_dir=None, retry=None,
                 checkpoint_dir=None, resume=False, allow_failures=False):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.spec = spec
        self.jobs = max(int(jobs), 1)
        self.scale = float(scale)
        self.capture_dir = capture_dir
        self.check_invariants = bool(check_invariants)
        self.telemetry_dir = telemetry_dir
        self.retry = RetryPolicy.from_value(
            retry if retry is not None else spec.retry)
        self.checkpoint_dir = checkpoint_dir
        self.resume = bool(resume)
        self.allow_failures = bool(allow_failures)

    def payloads(self):
        """One picklable work unit per node, in spec order.

        Pure: building payloads (for inspection, fingerprinting, tests)
        touches no filesystem — :meth:`run` creates the capture and
        telemetry directories when it actually writes into them.
        """
        duration_ns = max(int(self.spec.duration_ms * MILLISECONDS
                              * self.scale), _MIN_DURATION_NS)
        drain_ns = (max(int(self.spec.drain_ms * MILLISECONDS * self.scale),
                        _MIN_DRAIN_NS)
                    if self.spec.drain_ms else 0)
        chaos = self.spec.chaos or {}
        out = []
        for node in self.spec.nodes:
            capture_path = (
                os.path.join(self.capture_dir, f"{node.node_id}.jsonl")
                if self.capture_dir else None)
            payload = {
                "node": node.to_dict(),
                "root_seed": self.spec.seed,
                "duration_ns": duration_ns,
                "drain_ns": drain_ns,
                "dp_slo_us": self.spec.dp_slo_us,
                "fault_scale": self.scale,
                "capture_path": capture_path,
                "check_invariants": self.check_invariants,
                "telemetry_dir": self.telemetry_dir,
                "telemetry_interval_ms": self.spec.telemetry_interval_ms,
                "spans": self.spec.spans,
            }
            entry = chaos.get(node.node_id)
            if entry:
                payload["chaos"] = dict(entry)
            if self.retry != RetryPolicy():
                # Part of the fingerprint: a resumed run under a different
                # retry policy must not silently reuse journaled entries.
                payload["retry"] = self.retry.to_dict()
            out.append(payload)
        return out

    def _load_checkpoint(self, payloads):
        """(checkpoint, reused-entries-by-node) honoring ``resume``."""
        if not self.checkpoint_dir:
            return None, {}
        checkpoint = FleetCheckpoint(self.checkpoint_dir)
        existing = checkpoint.load()
        if existing and not self.resume:
            raise CheckpointError(
                f"checkpoint dir {self.checkpoint_dir!r} already holds "
                f"{len(existing)} journaled node(s); pass resume/--resume "
                f"to continue that run, or use a fresh directory")
        reused = {}
        if self.resume:
            fingerprints = {payload["node"]["node_id"]:
                            payload_fingerprint(payload)
                            for payload in payloads}
            for node_id, entry in existing.items():
                if node_id not in fingerprints:
                    continue    # journaled under a larger subset; ignore
                if entry.get("fingerprint") != fingerprints[node_id]:
                    raise CheckpointError(
                        f"checkpoint entry for node {node_id!r} was "
                        f"journaled under a different spec/seed/scale; "
                        f"resume with the original settings or use a "
                        f"fresh --checkpoint-dir")
                reused[node_id] = entry
        return checkpoint, reused

    def run(self):
        """Simulate the fleet; returns the full report dict."""
        started = time.time()
        if self.capture_dir:
            os.makedirs(self.capture_dir, exist_ok=True)
        if self.telemetry_dir:
            os.makedirs(self.telemetry_dir, exist_ok=True)
        payloads = self.payloads()
        checkpoint, reused = self._load_checkpoint(payloads)
        to_run = [payload for payload in payloads
                  if payload["node"]["node_id"] not in reused]

        def _journal(outcome):
            if checkpoint is None:
                return
            fingerprint = payload_fingerprint(
                to_run[to_run_index[outcome.label]])
            if outcome.ok:
                entry = checkpoint_entry(outcome.label, fingerprint,
                                         summary=outcome.value)
            else:
                entry = checkpoint_entry(outcome.label, fingerprint,
                                         failure=_failed_node(outcome))
            checkpoint.journal(entry)

        to_run_index = {payload["node"]["node_id"]: index
                        for index, payload in enumerate(to_run)}
        outcomes = pool_outcomes(
            run_node, to_run, jobs=self.jobs,
            label=lambda payload: payload["node"]["node_id"],
            retry=self.retry, prepare=_prepare_payload,
            classify=envelope_failure, on_outcome=_journal)

        by_node = {}
        retried = {}
        for outcome in outcomes:
            if outcome.ok:
                by_node[outcome.label] = ("ok", outcome.value)
                if outcome.attempts > 1:
                    retried[outcome.label] = outcome.attempts
            else:
                by_node[outcome.label] = ("failed", _failed_node(outcome))
        resumed_nodes = []
        for node_id, entry in reused.items():
            if entry["outcome"] == "ok":
                by_node[node_id] = ("ok", entry["summary"])
            else:
                by_node[node_id] = ("failed", entry["failure"])
            resumed_nodes.append(node_id)

        nodes = []
        failures = []
        for node in self.spec.nodes:
            status, value = by_node[node.node_id]
            if status == "ok":
                nodes.append(value)
            else:
                failures.append(value)
        wall_s = time.time() - started
        timing = {"wall_s": wall_s, "jobs": self.jobs}
        if retried:
            timing["retried"] = dict(sorted(retried.items()))
        if resumed_nodes:
            timing["resumed_nodes"] = sorted(resumed_nodes)
        report = {
            "spec": self.spec.to_dict(),
            "scale": self.scale,
            "nodes": nodes,
            "aggregate": aggregate_fleet(nodes, failures=failures,
                                         expected_nodes=len(self.spec.nodes)),
            "timing": timing,
        }
        if self.telemetry_dir:
            from repro.fleet.telemetry import write_fleet_telemetry

            write_fleet_telemetry(self.telemetry_dir, report)
            report["telemetry_dir"] = self.telemetry_dir
        if failures and not self.allow_failures:
            raise FleetRunFailed(failures, report)
        return report


def run_fleet(spec, jobs=1, scale=1.0, capture_dir=None,
              check_invariants=False, telemetry_dir=None, retry=None,
              checkpoint_dir=None, resume=False, allow_failures=False):
    """One-call convenience used by the CLI and the scale-out experiment."""
    return FleetRunner(spec, jobs=jobs, scale=scale, capture_dir=capture_dir,
                       check_invariants=check_invariants,
                       telemetry_dir=telemetry_dir, retry=retry,
                       checkpoint_dir=checkpoint_dir, resume=resume,
                       allow_failures=allow_failures).run()
