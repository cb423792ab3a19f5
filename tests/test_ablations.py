"""Ablation drivers run end-to-end at a tiny scale."""

from repro.bench import ablations

TINY = {"scale": 0.04, "workload_size": 6}


def test_budget_sweep_runs():
    result = ablations.ablation_budget(**TINY)
    assert result.experiment == "ablation-budget"
    assert "unlimited" in result.text
    assert set(result.data) == {"quarter", "paper", "unlimited"}


def test_oracle_ablation_runs():
    result = ablations.ablation_oracle_statistics(**TINY)
    assert "1C" in result.data
    assert "oracle" in result.text


def test_skew_sweep_runs():
    result = ablations.ablation_skew(**TINY)
    assert set(result.data) == {0.0, 0.5, 1.0}
    for ratio in result.data.values():
        assert ratio > 0


def test_workload_size_sweep_runs():
    result = ablations.ablation_workload_size(scale=TINY["scale"])
    assert 3 in result.data
    assert "workload size" in result.text
