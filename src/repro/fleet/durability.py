"""Fleet run durability: retry policies, failure envelopes, checkpoints.

A fleet run used to share the fate of its weakest worker: one bad node
payload, one OOM-killed process, and ``pool.map`` destroyed the whole
run with a bare traceback — no indication of which node failed, no way
to salvage the other 63 results.  This module is the data layer that
makes fleet runs durable instead:

* :class:`RetryPolicy` — how many attempts each node gets, with what
  backoff and per-attempt wall-clock timeout.  Carried as plain data on
  :class:`~repro.fleet.spec.FleetSpec` so retry behaviour round-trips
  through spec JSON like everything else.
* **Failure records** — every failure is one ``{"kind", "error",
  "traceback"}`` record, to which the runner adds ``node_id`` and
  ``attempts``.  A worker that fails returns (never raises) its record
  in an envelope built *inside the worker*.  Capturing the traceback
  worker-side keeps the record byte-identical whether the node ran
  serially or in a pool, which is what lets degraded fleet reports stay
  deterministic across ``--jobs`` levels.
* **Chaos injection** — declarative injected worker faults
  (``FleetSpec.chaos``): fail a node's first N attempts (or every
  attempt) with a raised :class:`InjectedWorkerFault` or, in pooled
  runs, a hard ``os._exit`` that genuinely breaks the process pool.
  Chaos is data, so chaos-driven failures and retry counts are exactly
  reproducible — the durability experiment and CI lean on this.
* :class:`FleetCheckpoint` — a journal directory the runner writes one
  entry into as each node completes (atomic rename), so an interrupted
  run resumes from where it died: ``--checkpoint-dir D --resume`` skips
  journaled nodes and the final fleet JSON is byte-identical to an
  uninterrupted run.
* :func:`verify_fleet_report` — structural invariants over a finished
  report (coverage arithmetic, survivor/failure disjointness, envelope
  shape), run under ``fleet --check-invariants``.

Determinism caveats, documented rather than hidden: ``timeout`` and
genuine pool crashes (``BrokenProcessPool``) are wall-clock phenomena —
a pool break charges a crash attempt to every in-flight node because
the culprit is unknowable from the parent.  The canonical byte-identity
contract covers exception-kind failures (including all chaos of kind
``"exception"``), which is everything the simulation itself can
produce.
"""

import hashlib
import json
import os
import re
import traceback
from dataclasses import dataclass, replace

from repro.spec_fields import (
    check_fields,
    check_int,
    check_number,
    check_spec_fields,
)

#: Failure kinds a node outcome can carry.
FAILURE_KINDS = ("exception", "crash", "timeout")

#: How many traceback lines a failure envelope keeps.
TRACEBACK_TAIL_LINES = 6

#: Sentinel key marking a worker return value as a failure envelope.
FAILURE_KEY = "__fleet_failure__"

#: The directory holding the ``repro`` package; failure records name
#: source files relative to it.
_SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_FRAME_LINE = re.compile(r'^(\s*)File "([^"]*)", line \d+, in (.*)$')


class InjectedWorkerFault(RuntimeError):
    """The deterministic chaos exception (``FleetSpec.chaos``)."""


class CheckpointError(ValueError):
    """A checkpoint dir cannot be (re)used the way the caller asked."""


class FleetRunFailed(RuntimeError):
    """Nodes failed terminally and the caller did not allow failures.

    Raised *after* the run completes and every outcome is journaled, so
    a rerun with ``resume=True`` (and ``allow_failures=True``) salvages
    everything that succeeded.  Carries the full ``report`` and the
    normalized ``failures`` list so callers can still render the
    degraded result.
    """

    def __init__(self, failures, report):
        self.failures = list(failures)
        self.report = report
        names = ", ".join(f["node_id"] for f in self.failures)
        first = self.failures[0]
        super().__init__(
            f"{len(self.failures)} node(s) failed terminally ({names}); "
            f"first: {first['node_id']} after {first['attempts']} "
            f"attempt(s): {first['error']} "
            f"(pass allow_failures/--allow-failures to accept a degraded "
            f"fleet)")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runner tries before declaring a node failed.

    ``max_attempts`` counts total attempts (1 = no retry).  Attempt
    ``k+1`` waits ``backoff_s * 2**(k-1)`` seconds after attempt ``k``
    fails.  ``timeout_s`` is every attempt's wall-clock budget in pooled
    runs; serial runs cannot preempt a running node, so the timeout
    applies only when ``jobs > 1``.
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    timeout_s: float = None

    def __post_init__(self):
        object.__setattr__(self, "max_attempts",
                           check_int("retry", "max_attempts",
                                     self.max_attempts))
        check_number("retry", "backoff_s", self.backoff_s)
        if self.timeout_s is not None:
            check_number("retry", "timeout_s", self.timeout_s)
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    def delay_s(self, attempt):
        """Seconds to wait before ``attempt`` (attempt numbers start at 1)."""
        return self.backoff_s * 2 ** (attempt - 2) if attempt > 1 else 0.0

    def to_dict(self):
        out = {"max_attempts": self.max_attempts}
        if self.backoff_s:
            out["backoff_s"] = self.backoff_s
        if self.timeout_s is not None:
            out["timeout_s"] = self.timeout_s
        return out

    @classmethod
    def from_value(cls, value):
        """Coerce None / dict / RetryPolicy into a RetryPolicy."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**check_spec_fields("retry", value, cls))
        raise ValueError(
            f"retry must be a RetryPolicy or its dict, got "
            f"{type(value).__name__}")


# -- Failure records -----------------------------------------------------------


def exception_failure(exc):
    """The failure record for a raised exception.

    Every node failure has this one shape, ``{"kind", "error",
    "traceback"}``: raised exceptions, pool ``crash`` and ``timeout``
    attempts, and the worker envelope's payload alike.  The runner adds
    ``node_id`` and ``attempts`` when it reports or journals the node.
    Its frames carry no checkout path and no line number, so the record
    is the same wherever the source lives and whatever moved above the
    raise site.
    """
    lines = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__)).rstrip("\n").splitlines()
    return {"kind": "exception", "error": repr(exc),
            "traceback": [_portable_frame(line)
                          for line in lines[-TRACEBACK_TAIL_LINES:]]}


def _portable_frame(line):
    """``File "<path>", line <N>, in <f>`` as ``File "<rel>", in <f>``:
    the path relative to the source root, or its file name outside it."""
    match = _FRAME_LINE.match(line)
    if match is None:
        return line
    indent, path, function = match.groups()
    relative = os.path.relpath(path, _SOURCE_ROOT)
    if relative.startswith(os.pardir):
        relative = os.path.basename(path)
    return f'{indent}File "{relative.replace(os.sep, "/")}", in {function}'


def failure_envelope(exc):
    """The dict a failing worker *returns* instead of raising.

    Built inside the worker so the traceback tail reflects the real
    raise site (not the parent's future re-raise shim) and is identical
    at any ``--jobs`` level.
    """
    return {FAILURE_KEY: True, **exception_failure(exc)}


def envelope_failure(value):
    """The failure record a worker returned, or None for a real result."""
    if isinstance(value, dict) and value.get(FAILURE_KEY):
        return {key: value[key] for key in ("kind", "error", "traceback")}
    return None


# -- Chaos: declarative injected worker faults ---------------------------------


def normalize_chaos(chaos):
    """Validate/normalize ``FleetSpec.chaos`` into canonical per-node form.

    Accepts ``{node_id: N}`` (fail the first N attempts; ``-1`` = every
    attempt) or ``{node_id: {"fail_attempts": N, "kind": ...}}``.
    Node ids need not exist in the spec — ``--nodes`` subsets and resume
    runs may carry chaos entries for nodes they no longer simulate.
    """
    if chaos is None:
        return None
    if not isinstance(chaos, dict):
        raise ValueError(f"chaos must be a dict of node_id -> spec, "
                         f"got {type(chaos).__name__}")
    out = {}
    for node_id, entry in chaos.items():
        owner = f"chaos[{node_id!r}]"
        if isinstance(entry, int) and not isinstance(entry, bool):
            entry = {"fail_attempts": entry}
        elif not isinstance(entry, dict):
            raise ValueError(
                f"{owner} must be an int or a dict, "
                f"got {type(entry).__name__}")
        check_fields(owner, entry, ("fail_attempts", "kind"))
        fail_attempts = check_int(owner, "fail_attempts",
                                  entry.get("fail_attempts", -1))
        kind = entry.get("kind", "exception")
        if kind not in ("exception", "crash"):
            raise ValueError(
                f"{owner} kind must be 'exception' or 'crash', "
                f"got {kind!r}")
        out[node_id] = {"fail_attempts": fail_attempts, "kind": kind}
    return dict(sorted(out.items()))


def maybe_inject_chaos(entry, node_id, attempt, parallel=False):
    """Fire a chaos entry for this attempt (or return quietly).

    ``kind="exception"`` raises :class:`InjectedWorkerFault` (contained
    by the worker's envelope path).  ``kind="crash"`` hard-exits the
    worker process in pooled runs — a genuine ``BrokenProcessPool`` for
    the recovery path to handle — and degrades to the exception kind in
    serial runs, where exiting would kill the caller itself.
    """
    if not entry:
        return
    fail_attempts = entry["fail_attempts"]
    if fail_attempts >= 0 and attempt > fail_attempts:
        return
    if entry["kind"] == "crash" and parallel:
        os._exit(13)
    raise InjectedWorkerFault(
        f"injected worker fault on {node_id!r} (attempt {attempt})")


# -- Checkpoint journal --------------------------------------------------------


_ENTRY_SUFFIX = ".node.json"

#: Payload keys excluded from the fingerprint: host paths and pool
#: bookkeeping that legitimately differ between runs of the same fleet.
_FINGERPRINT_EXCLUDE = ("capture_path", "telemetry_dir", "attempt",
                       "parallel")


def payload_fingerprint(payload):
    """A stable digest of everything that determines a node's summary.

    Two payloads with the same fingerprint produce byte-identical
    summaries (the node worker is a pure function of its payload), so a
    journaled entry may stand in for a re-run — the basis of resume.
    """
    canon = {key: value for key, value in payload.items()
             if key not in _FINGERPRINT_EXCLUDE}
    blob = json.dumps(canon, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class FleetCheckpoint:
    """A journal directory: one atomic JSON entry per completed node.

    Entries land in *completion* order (the runner journals from its
    pool callback), but each lives in its own ``<node_id>.node.json``
    file, so a kill at any instant leaves either a complete entry or no
    entry — never a torn one (write-to-temp + ``os.replace``).
    """

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def entry_path(self, node_id):
        return os.path.join(self.directory, node_id + _ENTRY_SUFFIX)

    def load(self):
        """``{node_id: entry}`` for every journaled node."""
        out = {}
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(_ENTRY_SUFFIX):
                continue
            with open(os.path.join(self.directory, name)) as handle:
                entry = json.load(handle)
            out[entry["node_id"]] = entry
        return out

    def journal(self, entry):
        """Atomically persist one completed-node entry."""
        path = self.entry_path(entry["node_id"])
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(entry, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        return path


def checkpoint_entry(node_id, fingerprint, summary=None, failure=None):
    """One journal entry: a success summary or a terminal failure."""
    if (summary is None) == (failure is None):
        raise ValueError("exactly one of summary/failure must be given")
    entry = {"node_id": node_id, "fingerprint": fingerprint}
    if summary is not None:
        entry["outcome"] = "ok"
        entry["summary"] = summary
    else:
        entry["outcome"] = "failed"
        entry["failure"] = failure
    return entry


# -- Report invariants ---------------------------------------------------------


def verify_fleet_report(report):
    """Structural durability invariants over a finished fleet report.

    Returns a list of problem strings (empty = consistent):

    * the aggregate's node count matches the surviving summaries;
    * coverage arithmetic adds up (completed + failed == expected,
      fraction == completed / expected);
    * failed node ids are disjoint from survivors and unique;
    * every failure envelope is well-formed (known kind, >= 1 attempt);
    * ``degraded`` is present exactly when nodes failed.
    """
    problems = []
    aggregate = report.get("aggregate") or {}
    fleet = aggregate.get("fleet") or {}
    survivors = [node["node_id"] for node in report.get("nodes", [])]
    if fleet.get("nodes") != len(survivors):
        problems.append(
            f"aggregate counts {fleet.get('nodes')} nodes but "
            f"{len(survivors)} summaries survive")
    failed = aggregate.get("failed_nodes") or []
    failed_ids = [entry.get("node_id") for entry in failed]
    if len(set(failed_ids)) != len(failed_ids):
        problems.append(f"duplicate failed node ids: {failed_ids}")
    overlap = set(failed_ids) & set(survivors)
    if overlap:
        problems.append(
            f"nodes both failed and survived: {sorted(overlap)}")
    for entry in failed:
        if entry.get("kind") not in FAILURE_KINDS:
            problems.append(
                f"failed node {entry.get('node_id')!r} has unknown "
                f"kind {entry.get('kind')!r}")
        if int(entry.get("attempts", 0)) < 1:
            problems.append(
                f"failed node {entry.get('node_id')!r} records "
                f"{entry.get('attempts')} attempts")
    degraded = bool(aggregate.get("degraded"))
    if degraded != bool(failed):
        problems.append(
            f"degraded flag is {degraded} with {len(failed)} failed nodes")
    coverage = aggregate.get("coverage")
    if failed:
        if not coverage:
            problems.append("degraded aggregate lacks a coverage block")
        else:
            expected = coverage.get("expected")
            completed = coverage.get("completed")
            if completed != len(survivors):
                problems.append(
                    f"coverage counts {completed} completed nodes but "
                    f"{len(survivors)} summaries survive")
            if expected != len(survivors) + len(failed):
                problems.append(
                    f"coverage expects {expected} nodes but "
                    f"{len(survivors)} + {len(failed)} completed/failed")
            if expected:
                fraction = coverage.get("fraction")
                if fraction != (completed or 0) / expected:
                    problems.append(
                        f"coverage fraction {fraction} != "
                        f"{completed}/{expected}")
    elif coverage is not None:
        problems.append("healthy aggregate carries a coverage block")
    return problems


def retry_with(policy, max_attempts=None, backoff_s=None, timeout_s=None):
    """CLI-override helper: a copy of ``policy`` with fields replaced."""
    policy = RetryPolicy.from_value(policy)
    updates = {}
    if max_attempts is not None:
        updates["max_attempts"] = max_attempts
    if backoff_s is not None:
        updates["backoff_s"] = backoff_s
    if timeout_s is not None:
        updates["timeout_s"] = timeout_s
    return replace(policy, **updates) if updates else policy
