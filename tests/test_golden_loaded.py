"""The shipped matrix cells still write the bytes pinned in
bench/golden.json: the 8 cells with background load and the 5 without it.
The pin is only read here; bench/golden.py describes how it is made and
when it may change."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from cv2x_bench import analysis, scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden.json"
MATRIX = ROOT / "configs" / "table1_matrix.json"


def _check_pinned_cells(workload: str, cell_count: int, out: Path) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    pin = golden["workloads"][workload]
    stems = {rel.split("/")[0] for rel in pin if "/" in rel}
    full = scenario.load_matrix_config(MATRIX)
    cells = [c for c in full.cells if analysis.safe_name(c["name"]) in stems]
    assert len(cells) == len(stems) == cell_count
    matrix = dataclasses.replace(full, master_seed=golden["seed"], cells=cells)
    result = scenario.run_matrix(matrix, out)
    assert result.failures == {}
    digests = {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest()
               for rel in pin}
    assert {rel for rel, d in digests.items() if d != pin[rel]} == set()


def test_loaded_cells_match_the_golden_pin(tmp_path):
    _check_pinned_cells("matrix-loaded", 8, tmp_path)


def test_sparse_cells_match_the_golden_pin(tmp_path):
    # incl. the 120 s mobility cell, where idle ticks are skipped
    _check_pinned_cells("matrix-sparse", 5, tmp_path)
