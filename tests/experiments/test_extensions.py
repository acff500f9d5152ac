"""Threshold ablation: the adaptive threshold against fixed small/large ones."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def ablation_threshold():
    return run_experiment("ablation_threshold", scale=0.2, seed=0)


def test_ablation_threshold_adaptive_harvests_more_than_fixed_large(
        ablation_threshold):
    derived = ablation_threshold.derived
    assert derived["adaptive_harvested_ms"] > derived["large_harvested_ms"]


def test_ablation_threshold_small_n_has_false_positives(ablation_threshold):
    assert ablation_threshold.derived["small_false_positive_rate"] > 0.05
