"""The shipped evaluation matrix, `configs/table1_matrix.json`, for the
tests that run its cells."""

from __future__ import annotations

import dataclasses
from pathlib import Path

from cv2x_bench.scenario import MatrixConfig, load_matrix_config

MATRIX_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "table1_matrix.json"


def shipped_matrix(master_seed: int = 20240510,
                   duration_s: float = 10.0) -> MatrixConfig:
    """The shipped matrix with its master seed and default duration
    replaced, the way bench/workload_matrix.split_matrix replaces the seed;
    a cell that sets its own duration keeps it."""
    matrix = load_matrix_config(MATRIX_CONFIG)
    return dataclasses.replace(
        matrix, master_seed=master_seed,
        defaults={**matrix.defaults, "duration_s": duration_s})
