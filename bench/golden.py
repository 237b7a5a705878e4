"""Golden output pin for the matrix workloads.

`golden.json` holds the SHA-256 of every byte-stable output a matrix
workload writes at the shipped master seed and durations: each cell's
JSONL packet log, `stats.csv`, and the per-cell CDF and per-packet CSVs.
Every benchmark run of a matrix workload recomputes them and fails on any
difference.

A change that alters a digest changes what the emulator computes.  Such a
change must say why in CHANGES.md and regenerate the pin with

    python3 bench/golden.py --update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 20240510


def pinned_files(cell_names: list[str]) -> list[str]:
    """Relative paths of the pinned outputs of a run_matrix call."""
    from cv2x_bench.analysis import safe_name
    files = ["stats.csv"]
    for name in cell_names:
        stem = safe_name(name)
        files += [f"{stem}/{stem}.jsonl", f"cdf_{stem}.csv",
                  f"per_packet_{stem}.csv"]
    return files


def digest_outputs(out_dir: Path, cell_names: list[str]) -> dict[str, str]:
    """SHA-256 of each pinned output; a missing file digests as 'missing'."""
    digests = {}
    for rel in pinned_files(cell_names):
        path = out_dir / rel
        digests[rel] = (hashlib.sha256(path.read_bytes()).hexdigest()
                        if path.is_file() else "missing")
    return digests


def compare(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per file whose digest differs from the pin, or that is
    pinned but absent, or present but not pinned."""
    problems = []
    for rel in sorted(set(expected) | set(actual)):
        want, got = expected.get(rel, "unpinned"), actual.get(rel, "not written")
        if want != got:
            problems.append(f"{rel}: pinned {want[:16]}, got {got[:16]}")
    return problems


def load() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["workloads"]


def _update() -> int:
    import workload_matrix
    pins = {}
    for name in workload_matrix.WORKLOADS:
        pins[name] = workload_matrix.golden_digests(name)
        print(f"{name}: {len(pins[name])} files pinned")
    GOLDEN_PATH.write_text(json.dumps(
        {"seed": GOLDEN_SEED,
         "note": "SHA-256 of matrix outputs at the shipped seed and durations; "
                 "see golden.py before changing",
         "workloads": pins}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        print("usage: python3 bench/golden.py --update", file=sys.stderr)
        sys.exit(2)
    import env
    env.prepare()
    sys.exit(_update())
