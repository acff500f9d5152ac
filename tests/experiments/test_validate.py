"""Tests for the validation harness."""

import os
import re

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import ExperimentResult
from repro.experiments.validate import (
    EXPECTATIONS,
    Expectation,
    run_validation,
    write_experiments_md,
)
from repro.fleet import pool


REPORT = os.path.join(os.path.dirname(__file__), "..", "..", "EXPERIMENTS.md")


def test_every_experiment_has_an_expectation_entry():
    assert sorted(EXPECTATIONS) == sorted(EXPERIMENTS)
    for exp_id, expectations in EXPECTATIONS.items():
        assert expectations, f"{exp_id} has no shape checks"


def test_expectation_evaluates_derived_metrics():
    expectation = Expectation("x above 1", lambda r: r.derived["x"] > 1)
    good = ExperimentResult("e", "t", "r", derived={"x": 2})
    bad = ExperimentResult("e", "t", "r", derived={"x": 0})
    assert expectation.evaluate(good)
    assert not expectation.evaluate(bad)


def test_expectation_missing_key_is_failure_not_crash():
    expectation = Expectation("needs y", lambda r: r.derived["y"] > 1)
    result = ExperimentResult("e", "t", "r", derived={})
    assert expectation.evaluate(result) is False

    row_band = Expectation(
        "taichi row under 2%",
        lambda r: {row["system"]: row for row in r.rows}["taichi"]["pct"] < 2)
    result = ExperimentResult("e", "t", "r",
                              rows=[{"system": "baseline", "pct": 0.0}])
    assert row_band.evaluate(result) is False


def test_run_validation_subset_and_report(tmp_path, monkeypatch):
    def _no_pool(*args, **kwargs):
        raise AssertionError("jobs=1 must not start a process pool")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", _no_pool)
    progress = []
    outcomes = run_validation(scale=0.1, seed=0, exp_ids=["fig3", "fig6"],
                              progress=progress.append)
    assert [outcome["id"] for outcome in outcomes] == ["fig3", "fig6"]
    assert all(all(ok for _, ok in outcome["checks"])
               for outcome in outcomes)
    assert len(progress) == 2

    path = os.path.join(tmp_path, "EXPERIMENTS.md")
    write_experiments_md(path, outcomes, scale=0.1, seed=0)
    with open(path) as handle:
        text = handle.read()
    assert "## fig3" in text
    assert "## fig6" in text
    assert "Shape checks" in text
    assert "- [x]" in text


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_experiment_is_named_after_the_others_run(jobs):
    progress = []
    with pytest.raises(RuntimeError, match="no_such_experiment") as excinfo:
        run_validation(scale=0.1, seed=0, jobs=jobs,
                       exp_ids=["no_such_experiment", "fig3"],
                       progress=progress.append)
    assert str(excinfo.value).startswith(
        "1 experiment(s) raised: no_such_experiment: KeyError(")
    assert sorted(line.partition("(")[0] for line in progress) == [
        "[ERR ] no_such_experiment: KeyError", "[OK ] fig3 "]


def test_report_is_byte_identical_across_jobs(tmp_path):
    path = os.path.join(tmp_path, "EXPERIMENTS.md")
    reports = []
    for jobs in (1, 2):
        outcomes = run_validation(scale=0.1, seed=0, jobs=jobs,
                                  exp_ids=["ext_audit", "fig3", "fig6",
                                           "table1"])
        write_experiments_md(path, outcomes, scale=0.1, seed=0)
        with open(path, "rb") as handle:
            reports.append(handle.read())
    assert reports[0] == reports[1]


def test_checked_in_report_matches_the_registry_and_bands():
    with open(REPORT) as handle:
        text = handle.read()
    n = len(EXPERIMENTS)
    assert f"**Shape checks: {n}/{n} experiments pass all their bands.**" \
        in text

    sections = re.split(r"^## ", text, flags=re.MULTILINE)[1:]
    ids, bands = [], {}
    for section in sections:
        heading, _, body = section.partition("\n")
        exp_id, sep, _ = heading.partition(" — ")
        if sep:
            ids.append(exp_id)
            bands[exp_id] = re.findall(r"^- \[x\] (.*)$", body,
                                       flags=re.MULTILINE)
    assert ids == sorted(EXPERIMENTS)
    for exp_id, expectations in EXPECTATIONS.items():
        assert bands[exp_id] == [e.description for e in expectations], exp_id
