"""Process-pool fan-out shared by the fleet runner and ``validate --jobs``.

:func:`pool_outcomes` is the one fan-out loop.  Every payload runs to a
structured :class:`Outcome` (a value or a failure record), failures are
*contained* per payload instead of shared, a
:class:`~repro.fleet.durability.RetryPolicy` re-runs failed attempts
with backoff, a broken process pool is rebuilt and charged as a
``crash`` attempt against the payloads that were in flight, and a
per-attempt wall-clock timeout sheds stuck workers.

``jobs <= 1`` (or a single payload) takes the same loop through an
in-process executor whose ``submit`` runs the call at once.  No child
process starts, timeouts never fire, and every attempt of payload *i*
ends before payload *i+1* starts.

Workers must be module-level functions taking one picklable payload and
returning one picklable result (the ``ProcessPoolExecutor`` contract).
"""

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.fleet.durability import RetryPolicy, exception_failure

#: Floor for the event-loop wait slice when deadlines/backoffs are armed.
_MIN_WAIT_S = 0.01
#: Ceiling so a far-off deadline still lets completed futures drain.
_MAX_WAIT_S = 0.5


@dataclass
class Outcome:
    """One payload's terminal result: a value or a failure record."""

    index: int
    label: object = None
    value: object = None
    failure: dict = None
    attempts: int = 1

    @property
    def ok(self):
        return self.failure is None


@dataclass
class _Task:
    index: int
    payload: object
    label: object = None
    attempt: int = 1
    eligible_at: float = 0.0
    deadline: float = None


class _InlineExecutor:
    """Runs each call inside ``submit``, in this process."""

    def submit(self, fn, payload):
        future = Future()
        try:
            future.set_result(fn(payload))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def pool_outcomes(fn, payloads, jobs=1, label=None, retry=None,
                  prepare=None, classify=None, on_outcome=None):
    """Run every payload to an :class:`Outcome`; failures never spread.

    * ``label(payload)`` names the unit of work (node id) on its outcome.
    * ``retry`` is a :class:`~repro.fleet.durability.RetryPolicy`;
      failed attempts re-run (same payload, so deterministic workers
      make a successful retry byte-identical to a first-try success)
      after the policy's backoff, up to ``max_attempts``.  A payload
      keeps its worker slot through its backoff.
    * ``prepare(payload, attempt, parallel)`` builds the per-attempt
      payload actually shipped to the worker (the fleet runner injects
      the attempt number and pool flag here).
    * ``classify(value)`` returns the failure record inside a *returned*
      value, or None for a real result — the worker-side containment
      contract: workers return failure envelopes rather than raising,
      keeping records byte-identical across ``--jobs`` levels.
    * ``on_outcome(outcome)`` fires once per payload as its outcome
      finalizes (completion order) — the runner's checkpoint journal.

    A failure is ``{"kind", "error", "traceback"}``: ``exception`` for a
    raised or classified failure; ``crash`` when a ``BrokenProcessPool``
    charges an attempt to every in-flight payload (the parent cannot
    know which worker died) and the pool is rebuilt; ``timeout`` when an
    attempt outlives ``retry.timeout_s`` and the pool is rebuilt to shed
    the stuck worker.  Serial runs cannot preempt and ignore timeouts.

    Returns outcomes in input order.
    """
    payloads = list(payloads)
    retry = RetryPolicy.from_value(retry)
    parallel = jobs > 1 and len(payloads) > 1
    workers = min(int(jobs), len(payloads)) if parallel else 1
    outcomes = [None] * len(payloads)
    pending = deque(
        _Task(index=index, payload=payload,
              label=label(payload) if label is not None else None)
        for index, payload in enumerate(payloads))
    waiting = []          # backoff-delayed retries
    in_flight = {}        # future -> task
    timed_out_any = False

    def _executor():
        return (ProcessPoolExecutor(max_workers=workers) if parallel
                else _InlineExecutor())

    def _resolve(task, now, value=None, failure=None):
        """Finalize an attempt's result, or requeue it for a retry."""
        if failure is not None:
            if task.attempt < retry.max_attempts:
                task.attempt += 1
                task.eligible_at = now + retry.delay_s(task.attempt)
                waiting.append(task)
                return
            value = None
        outcome = Outcome(index=task.index, label=task.label, value=value,
                          failure=failure, attempts=task.attempt)
        outcomes[task.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    def _submit(task, now):
        prepared = (prepare(task.payload, task.attempt, parallel)
                    if prepare is not None else task.payload)
        task.deadline = (now + retry.timeout_s
                         if parallel and retry.timeout_s is not None
                         else None)
        in_flight[pool.submit(fn, prepared)] = task

    pool = _executor()
    try:
        while pending or waiting or in_flight:
            now = time.monotonic()
            ready = [task for task in waiting if task.eligible_at <= now]
            for task in ready:
                waiting.remove(task)
            pending.extendleft(reversed(ready))
            while pending and len(in_flight) + len(waiting) < workers:
                _submit(pending.popleft(), now)
            if not in_flight:
                # Everything left is backoff-delayed: sleep to the next
                # eligibility instant.
                time.sleep(max(min(task.eligible_at for task in waiting)
                               - time.monotonic(), _MIN_WAIT_S))
                continue
            bounds = [task.deadline - now for task in in_flight.values()
                      if task.deadline is not None]
            bounds.extend(task.eligible_at - now for task in waiting)
            wait_s = (max(min(min(bounds), _MAX_WAIT_S), _MIN_WAIT_S)
                      if bounds else None)
            done, _ = wait(list(in_flight), timeout=wait_s,
                           return_when=FIRST_COMPLETED)
            broken = False
            now = time.monotonic()
            for future in done:
                task = in_flight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool as exc:
                    # The pool died while this task was in flight; the
                    # parent cannot tell culprit from bystander, so the
                    # crash attempt is charged to each.
                    broken = True
                    _resolve(task, now, failure={
                        "kind": "crash",
                        "error": f"worker process crashed "
                                 f"(attempt {task.attempt}): {exc!r}",
                        "traceback": []})
                    continue
                except Exception as exc:
                    _resolve(task, now, failure=exception_failure(exc))
                    continue
                _resolve(task, now, value=value, failure=(
                    classify(value) if classify is not None else None))
            expired = [future for future, task in in_flight.items()
                       if task.deadline is not None and now > task.deadline]
            for future in expired:
                task = in_flight.pop(future)
                timed_out_any = True
                broken = True   # rebuild below to shed the stuck worker
                _resolve(task, now, failure={
                    "kind": "timeout",
                    "error": f"attempt {task.attempt} exceeded "
                             f"{retry.timeout_s:g}s wall-clock timeout",
                    "traceback": []})
            if broken:
                # Innocent in-flight tasks are requeued without a charged
                # attempt; their old futures (if any still complete in the
                # abandoned pool) are simply ignored.
                for task in in_flight.values():
                    pending.appendleft(task)
                in_flight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = _executor()
    finally:
        # A stuck worker would make a waiting shutdown hang forever.
        pool.shutdown(wait=not timed_out_any, cancel_futures=True)
    return outcomes
