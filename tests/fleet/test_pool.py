"""pool_outcomes: ordering, containment, retries, the serial path."""

import time

import pytest

from repro.fleet import Outcome, pool, pool_outcomes
from repro.fleet.durability import RetryPolicy, envelope_failure


# Workers must be module-level for the process-pool pickle contract.

def _square(payload):
    return payload * payload


def _sleep_inverse(payload):
    # Later payloads finish first: completion order is the reverse of
    # input order, so in-order delivery is actually exercised.
    index, count = payload
    time.sleep(0.05 * (count - index))
    return index


def _boom_on_two(payload):
    if payload == 2:
        raise ValueError("payload two is cursed")
    return payload


def _envelope_below(payload):
    # Containment-style worker: returns a failure envelope on its first
    # attempts instead of raising (the fleet node contract).
    value, threshold = payload["value"], payload["threshold"]
    if payload["attempt"] < threshold:
        return {"__fleet_failure__": True, "kind": "exception",
                "error": f"not yet ({payload['attempt']})", "traceback": []}
    return f"ok-{value}"


def _prepare(payload, attempt, parallel):
    return {**payload, "attempt": attempt, "parallel": parallel}


def _values(outcomes):
    assert all(outcome.ok for outcome in outcomes)
    return [outcome.value for outcome in outcomes]


def test_serial_and_parallel_agree():
    payloads = list(range(6))
    expected = [_square(p) for p in payloads]
    assert _values(pool_outcomes(_square, payloads, jobs=1)) == expected
    assert _values(pool_outcomes(_square, payloads, jobs=3)) == expected


def test_more_jobs_than_payloads():
    # The pool must clamp workers to the payload count, not reject.
    assert _values(pool_outcomes(_square, [1, 2, 3], jobs=16)) == [1, 4, 9]


def test_empty_payload_list():
    assert pool_outcomes(_square, [], jobs=4) == []
    assert pool_outcomes(_square, [], jobs=1) == []


def test_input_order_despite_reverse_completion():
    count = 4
    payloads = [(index, count) for index in range(count)]
    outcomes = pool_outcomes(_sleep_inverse, payloads, jobs=count)
    assert _values(outcomes) == list(range(count))
    assert [outcome.index for outcome in outcomes] == list(range(count))


def test_serial_runs_in_process_one_payload_at_a_time(monkeypatch):
    def _no_pool(*args, **kwargs):
        raise AssertionError("jobs=1 must not start a process pool")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", _no_pool)
    calls = []

    def _record(payload):
        calls.append(payload)
        if payload["attempt"] < payload["threshold"]:
            raise ValueError(f"attempt {payload['attempt']}")
        return payload["value"], payload["parallel"]

    payloads = [{"value": value, "threshold": 2} for value in range(2)]
    outcomes = pool_outcomes(_record, payloads, jobs=1,
                             retry=RetryPolicy(max_attempts=2,
                                               backoff_s=0.01,
                                               timeout_s=1e-9),
                             prepare=_prepare)
    assert _values(outcomes) == [(0, False), (1, False)]
    # Every attempt of payload 0, backoff included, ends before payload 1
    # starts, and the timeout never preempts an in-process call.
    assert [(call["value"], call["attempt"]) for call in calls] == [
        (0, 1), (0, 2), (1, 1), (1, 2)]


def test_worker_error_without_label_names_index():
    failed = pool_outcomes(_boom_on_two, [0, 2], jobs=1)[1]
    assert (failed.index, failed.label, failed.ok) == (1, None, False)
    assert "cursed" in failed.failure["error"]


# -- pool_outcomes -------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_contain_failures(jobs):
    outcomes = pool_outcomes(_boom_on_two, [0, 1, 2, 3], jobs=jobs,
                             label=lambda payload: f"n{payload}")
    assert [outcome.ok for outcome in outcomes] == [True, True, False, True]
    failed = outcomes[2]
    assert isinstance(failed, Outcome)
    assert failed.label == "n2"
    assert failed.failure["kind"] == "exception"
    assert "cursed" in failed.failure["error"]
    assert failed.attempts == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_retry_recovers_transients(jobs):
    # threshold=2: the first attempt returns an envelope, the second
    # succeeds — attempt numbers are delivered by prepare(), so the
    # worker is stateless and the behavior is jobs-independent.
    payloads = [{"value": value, "threshold": 2 if value == 1 else 1}
                for value in range(3)]
    outcomes = pool_outcomes(_envelope_below, payloads, jobs=jobs,
                             retry=RetryPolicy(max_attempts=3),
                             prepare=_prepare, classify=envelope_failure)
    assert [outcome.value for outcome in outcomes] == [
        "ok-0", "ok-1", "ok-2"]
    assert [outcome.attempts for outcome in outcomes] == [1, 2, 1]


def test_outcomes_exhausted_retries_keep_last_envelope():
    payloads = [{"value": 7, "threshold": 99}]
    outcomes = pool_outcomes(_envelope_below, payloads, jobs=1,
                             retry=RetryPolicy(max_attempts=2),
                             prepare=_prepare, classify=envelope_failure)
    outcome = outcomes[0]
    assert not outcome.ok
    assert outcome.attempts == 2
    assert outcome.value is None
    # The record of the last try, without the envelope's marker key.
    assert outcome.failure == {"kind": "exception", "error": "not yet (2)",
                               "traceback": []}


def test_outcomes_on_outcome_fires_once_per_payload():
    seen = []
    pool_outcomes(_square, [1, 2, 3], jobs=1,
                  on_outcome=lambda outcome: seen.append(outcome.index))
    assert sorted(seen) == [0, 1, 2]


def test_outcomes_empty_payloads():
    assert pool_outcomes(_square, [], jobs=4) == []
