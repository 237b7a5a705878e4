"""Traced matrix runs repeat their counts exactly and match the values the
benchmark was defined with."""

import pytest

import golden
import layers
import spans
import workload_matrix


@pytest.mark.parametrize("workload", workload_matrix.WORKLOADS)
def test_traced_counts_repeat_and_match_baseline(workload, tmp_path):
    matrices, configs = workload_matrix.split_matrix(golden.GOLDEN_SEED)
    counts = []
    for i in range(2):
        tracer = spans.Tracer(spans.RECORDED)
        spans.install_emulator(tracer)
        try:
            rep = workload_matrix.run_rep(matrices[workload], configs,
                                          tmp_path / f"run{i}")
        finally:
            tracer.uninstall()
        assert rep.problems == []
        values = layers.layer_values(tracer.report())
        counts.append({k: values[k] for k in workload_matrix.BASELINE_COUNTS[workload]})
    assert counts[0] == counts[1] == workload_matrix.BASELINE_COUNTS[workload]
