"""The 8 shipped matrix cells with background load still write the bytes
pinned in bench/golden.json.  The pin is only read here; bench/golden.py
describes how it is made and when it may change."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from cv2x_bench import analysis, scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden.json"
MATRIX = ROOT / "configs" / "table1_matrix.json"


def test_loaded_cells_match_the_golden_pin(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    pin = golden["workloads"]["matrix-loaded"]
    stems = {rel.split("/")[0] for rel in pin if "/" in rel}
    full = scenario.load_matrix_config(MATRIX)
    cells = [c for c in full.cells if analysis.safe_name(c["name"]) in stems]
    assert len(cells) == len(stems) == 8
    matrix = dataclasses.replace(full, master_seed=golden["seed"], cells=cells)
    result = scenario.run_matrix(matrix, tmp_path)
    assert result.failures == {}
    digests = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
               for rel in pin}
    assert {rel for rel, d in digests.items() if d != pin[rel]} == set()
