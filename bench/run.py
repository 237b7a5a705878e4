"""cv2x-bench benchmark: one workload per call, or all of them.

    python3 bench/run.py --workload matrix-loaded --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --all

Run from the root of a source checkout; see bench/README.md for the
workloads and metrics.  The last line of output is one JSON object with
the keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer ones.
The exit code is 0 only if every output check passed.  A checkout
without the program (no src/cv2x_bench) exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import env
import golden
import procs

WORKLOADS = ("matrix-loaded", "matrix-sparse", "real-loopback")
SETUP_PROBES = {"matrix-loaded": 5, "matrix-sparse": 5, "real-loopback": 3}
PROBE_TIMEOUT_S = 60.0
STOP_GRACE_S = 30.0


def _prepare(workload: str, seed: int) -> None:
    """Everything a workload does before its first timed operation."""
    if workload == "real-loopback":
        import cv2x_bench.scenario  # noqa: F401  (the generator's codec and client)
    else:
        import workload_matrix
        workload_matrix.split_matrix(seed)


def _probe_setup(workload: str, seed: int, work) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that start this script and stop just
    before the workload's first timed operation: scaled to reference host
    speed (see calibrate.py), and raw."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    scaled, raw = [], []
    before = calibrate.sample_process()
    for i in range(SETUP_PROBES[workload]):
        raw.append(procs.run_timed(argv, work, f"probe-{i}", PROBE_TIMEOUT_S))
        after = calibrate.sample_process()
        scaled.append(calibrate.scale(raw[-1], before, after,
                                      calibrate.REFERENCE_PROCESS_S))
        before = after
    return scaled, raw


def _spec() -> dict:
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return json.load(fp)


def _run(workload: str, seed: int, seconds: int, trace: bool, work) -> dict:
    import workload_matrix
    import workload_real
    if trace:
        if workload == "real-loopback":
            return workload_real.run_traced(seed, seconds, work)
        return workload_matrix.run_traced(workload, seed, seconds, work)
    probes, probes_raw = _probe_setup(workload, seed, work)
    if workload == "real-loopback":
        return workload_real.run(seed, seconds, work, probes)
    result = workload_matrix.run(workload, seed, seconds, work)
    result["metrics"]["setup_s"] = statistics.median(probes)
    result["info"]["raw_s"]["setup_s"] = probes_raw
    return result


def _metrics(spec: dict, trace: bool, values: dict) -> dict:
    """Every metric BENCHMARK.json lists for this kind of run, with its
    unit; a layer the workload does not exercise reads 0."""
    listed = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    unknown = sorted(set(values) - names)
    if unknown:
        raise RuntimeError(f"metrics not listed in BENCHMARK.json: {unknown}")
    if not trace and len(values) != len(names):
        raise RuntimeError(f"end-to-end metrics missing: {sorted(names - set(values))}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in listed}


def _write_outputs(workload: str, seed: int, trace: bool, record: dict,
                   trace_report: dict | None) -> None:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{workload}-trace{int(trace)}-seed{seed}-{stamp}-{os.getpid()}"
    results = env.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    if trace_report is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(trace_report),
                                                    encoding="utf-8")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    spec = _spec()
    machine = env.machine_info(seed)
    print(f"# {workload} trace={int(trace)} seconds={seconds} "
          f"env={json.dumps(machine)}", flush=True)
    work = env.OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ticks = env.cpu_ticks()
    try:
        result = _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["info"]["steal_share"] = env.steal_share(ticks, env.cpu_ticks())
    metrics = _metrics(spec, trace, result["metrics"])
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    for key, value in result["info"].items():
        print(f"# {key}: {json.dumps(value)}")
    problems = list(dict.fromkeys(result["problems"]))
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    line = {"correct": not problems, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    _write_outputs(workload, seed, trace,
                   {"env": machine, "workload": workload, "trace": trace,
                    "seconds": seconds, **line, "problems": problems,
                    "info": result["info"]},
                   result.get("trace"))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], env=env.child_env(),
                preexec_fn=procs.child_preexec())
            try:
                code = child.wait()
            except BaseException:
                # Let the workload stop its own processes before it ends.
                child.terminate()
                try:
                    child.wait(STOP_GRACE_S)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()
                raise
            if code:
                print(f"{workload} trace={trace}: exit code {code}", file=sys.stderr)
            worst = max(worst, code)
    return worst


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="cv2x-bench benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=golden.GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)
    if opts.all == (opts.workload is not None):
        parser.error("give either --workload or --all")
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")
    # The master seed of a matrix must be a nonnegative integer.
    seed = opts.seed % 2**63
    procs.install_signal_exit()
    try:
        env.prepare()
        _spec()
    except (env.SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if opts.setup_probe:
        _prepare(opts.workload, seed)
        return 0
    if opts.all:
        return run_all(seed, opts.seconds)
    try:
        return run_workload(opts.workload, seed, opts.seconds, bool(opts.trace))
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
