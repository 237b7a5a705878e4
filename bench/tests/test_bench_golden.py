"""The golden pin catches any change to a pinned output."""

import shutil

import pytest

import golden
import workload_matrix


@pytest.fixture(scope="module")
def sparse_run(tmp_path_factory):
    """matrix-sparse at the pinned seed: its output directory and digests."""
    matrices, configs = workload_matrix.split_matrix(golden.GOLDEN_SEED)
    out = tmp_path_factory.mktemp("sparse") / "out"
    rep = workload_matrix.run_rep(matrices["matrix-sparse"], configs, out)
    assert rep.problems == []
    return out, rep.digests, workload_matrix.cell_names(matrices["matrix-sparse"])


def test_outputs_match_the_pin(sparse_run):
    _, digests, _ = sparse_run
    assert golden.compare(golden.load()["matrix-sparse"], digests) == []


@pytest.mark.parametrize("rel", [
    "mobility-bl-noload-10k-20hz/mobility-bl-noload-10k-20hz.jsonl",
    "stats.csv",
    "cdf_nominal-ap-noload-1k-10hz.csv",
    "per_packet_nominal-bl-noload-10k-20hz.csv",
])
def test_one_byte_change_in_a_copy_is_caught(sparse_run, tmp_path, rel):
    out, _, names = sparse_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    data = bytearray((copy / rel).read_bytes())
    data[len(data) // 2] ^= 0x01
    (copy / rel).write_bytes(bytes(data))
    problems = golden.compare(golden.load()["matrix-sparse"],
                              golden.digest_outputs(copy, names))
    assert len(problems) == 1 and problems[0].startswith(rel)


def test_missing_output_is_caught(sparse_run, tmp_path):
    out, _, names = sparse_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    (copy / "stats.csv").unlink()
    problems = golden.compare(golden.load()["matrix-sparse"],
                              golden.digest_outputs(copy, names))
    assert problems == ["stats.csv: pinned " + golden.load()["matrix-sparse"]
                        ["stats.csv"][:16] + ", got missing"]


def test_split_is_the_whole_matrix():
    matrices, configs = workload_matrix.split_matrix(golden.GOLDEN_SEED)
    loaded = workload_matrix.cell_names(matrices["matrix-loaded"])
    sparse = workload_matrix.cell_names(matrices["matrix-sparse"])
    assert (len(loaded), len(sparse)) == (8, 5)
    assert sorted(loaded + sparse) == sorted(configs)
