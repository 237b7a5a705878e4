"""matrix-loaded and matrix-sparse: the shipped 13-cell matrix, split by
whether a cell carries background load.

matrix-loaded holds the 8 cells with background traffic.  There CBR
generation, heap dispatch, enqueue and the backlogged BL FIFO and AP
water-fill schedulers do nearly all the work; no tick is idle.
matrix-sparse holds the 5 cells without it, including the 120 s mobility
cell, so per-tick overhead on idle ticks, handover set-up, the codec and
clock stamping dominate.  An optimisation of one side should show no
change on the other.  Together the two are exactly the shipped matrix,
which `split_matrix` checks.

Both run `scenario.run_matrix` in this process, as a batch job, at the
shipped durations; the master seed is the benchmark's --seed.
"""

from __future__ import annotations

import csv
import dataclasses
import fnmatch
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import calibrate
import env
import golden
import procs
import spans

WORKLOADS = ("matrix-loaded", "matrix-sparse")
FAMILIES = {"matrix-loaded": ("nominal-*-load5-110-*", "overload-*"),
            "matrix-sparse": ("nominal-*-noload-*", "mobility-*")}
MATRIX_CELLS = 13
# Repetitions an untraced run makes at least, more if `--seconds` allows.
# A rep of matrix-sparse is short and its calibrated time noisy: the
# median of 6 reps spread by 0.073 (interquartile range over median) in
# 35 groups on the sizing host, the median of 9 by 0.060.
MIN_REPS = {"matrix-loaded": 3, "matrix-sparse": 9}
TRACED_REPS = 2
ANALYZE_CALLS = 3
ANALYZE_TIMEOUT_S = 60.0

# Counts a traced run must repeat exactly.  The values are those the
# shipped matrix gave when the benchmark was defined; a run prints any
# difference from them (they do not depend on the seed).
BASELINE_COUNTS = {
    "matrix-loaded": {"netem.ticks": 32_215, "netem.enqueue.calls": 630_610,
                      "netem.enqueue.drops": 73_092,
                      "netem.schedule.calls": 630_610,
                      "agents.on_delivery.calls": 555_086,
                      "loadgen.packets": 625_010,
                      "protocol.encode.calls": 2_800,
                      "protocol.decode.calls": 2_800},
    "matrix-sparse": {"netem.ticks": 64_000, "netem.enqueue.calls": 12_000,
                      "netem.enqueue.drops": 0,
                      "netem.schedule.calls": 12_000,
                      "agents.on_delivery.calls": 12_000,
                      "loadgen.packets": 0,
                      "protocol.encode.calls": 6_000,
                      "protocol.decode.calls": 6_000},
}


def split_matrix(seed: int):
    """The shipped matrix at master seed `seed`, split into the two
    workloads, plus every cell's resolved config by name.  Raises
    SetupError unless the two parts are exactly the 13 shipped cells, each
    in its expected family."""
    from cv2x_bench import scenario
    from cv2x_bench.loadgen import parse_load
    from cv2x_bench.netem import Direction

    full = dataclasses.replace(scenario.load_matrix_config(env.MATRIX_CONFIG),
                               master_seed=seed)
    configs = scenario.resolve_matrix_cells(full)
    parts: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for cell, cfg in zip(full.cells, configs):
        loaded = any(parse_load(spec, Direction.UPLINK).ue_count
                     for spec in (cfg.load.ul, cfg.load.dl))
        parts["matrix-loaded" if loaded else "matrix-sparse"].append(cell)
    all_names = sorted(c["name"] for c in full.cells)
    split_names = sorted(c["name"] for cells in parts.values() for c in cells)
    if len(all_names) != MATRIX_CELLS or split_names != all_names:
        raise env.SetupError(
            f"matrix-loaded + matrix-sparse is not the {MATRIX_CELLS}-cell matrix")
    for workload, cells in parts.items():
        stray = [c["name"] for c in cells
                 if not any(fnmatch.fnmatch(c["name"], p) for p in FAMILIES[workload])]
        if stray:
            raise env.SetupError(f"{workload} holds unexpected cells {stray}")
    return ({w: dataclasses.replace(full, cells=cells) for w, cells in parts.items()},
            {cfg.name: cfg for cfg in configs})


def cell_names(matrix) -> list[str]:
    return [str(c["name"]) for c in matrix.cells]


def expected_messages(cfg) -> int:
    return round(cfg.message.rate_hz * cfg.duration_s)


# ---------------------------------------------------------------------------
# One run_matrix call and its checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Rep:
    wall_s: float
    cpu_s: float
    messages: int
    intact: int
    problems: list[str]
    digests: dict[str, str]


def run_rep(matrix, configs: dict, out: Path) -> Rep:
    """Time one run_matrix call (report writing included), then check its
    outputs.  The CPU time counts any child processes run_matrix starts and
    reaps, so that cells run elsewhere are not free."""
    from cv2x_bench import scenario
    cpu0 = _cpu_s()
    start = time.perf_counter()
    result = scenario.run_matrix(matrix, out)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    messages, intact, problems = verify_outputs(matrix, configs, result, out)
    return Rep(wall_s, cpu_s, messages, intact, problems,
               golden.digest_outputs(out, cell_names(matrix)))


def _cpu_s() -> float:
    """CPU time of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def verify_outputs(matrix, configs: dict, result, out: Path):
    """Check every cell delivered each of its messages once, intact and no
    faster than the per-hop base delay allows, and that the log and
    stats.csv agree.  Returns (messages sent, intact records, problems)."""
    from cv2x_bench.analysis import safe_name
    messages = intact = 0
    problems: list[str] = []
    for name in cell_names(matrix):
        cfg = configs[name]
        n = expected_messages(cfg)
        messages += n
        if name in result.failures:
            problems.append(f"{name}: failed: {result.failures[name]}")
            continue
        res = result.results[name]
        floor = cfg.network.base_delay_ns
        seqs: set[int] = set()
        for rec in res.records:
            if (not rec.corrupt and 0 <= rec.seq < n and rec.seq not in seqs
                    and rec.gt_ul >= floor and rec.gt_dl >= floor):
                seqs.add(rec.seq)
        intact += len(seqs)
        if res.sensor_sent != n or len(seqs) != n or len(res.records) != n:
            problems.append(f"{name}: sent {res.sensor_sent}, logged "
                            f"{len(res.records)}, intact {len(seqs)} of {n}")
        stem = safe_name(name)
        with open(out / stem / f"{stem}.jsonl", encoding="utf-8") as fp:
            logged = sum(1 for _ in fp)
        if logged != len(res.records):
            problems.append(f"{name}: log has {logged} lines for "
                            f"{len(res.records)} records")
    with open(out / "stats.csv", encoding="utf-8", newline="") as fp:
        rows = {row["scenario"]: int(row["n"]) for row in csv.DictReader(fp)}
    want = {name: expected_messages(configs[name]) for name in cell_names(matrix)}
    if rows != want:
        problems.append(f"stats.csv rows {rows} != {want}")
    return messages, intact, problems


def check_golden(workload: str, seed: int, digests: dict[str, str],
                 work: Path) -> list[str]:
    """Compare a run's digests with the pin.  With the shipped matrix the
    pinned outputs do not depend on the seed, so a run at any seed is
    compared as it is; only if that differs at another seed than the
    pinned one is the workload run once more, untimed, at the pinned seed
    to decide."""
    pin = golden.load()[workload]
    problems = golden.compare(pin, digests)
    if problems and seed != golden.GOLDEN_SEED:
        problems = golden.compare(pin, golden_digests(workload, work / "golden"))
    return [f"golden mismatch in {workload}: {line}" for line in problems]


def golden_digests(workload: str, out: Path | None = None) -> dict[str, str]:
    """Digests of the workload's outputs at the pinned seed."""
    matrices, configs = split_matrix(golden.GOLDEN_SEED)
    out = out or env.OUT / "golden" / workload
    shutil.rmtree(out, ignore_errors=True)
    rep = run_rep(matrices[workload], configs, out)
    shutil.rmtree(out, ignore_errors=True)
    if rep.problems:
        raise RuntimeError(f"{workload} at the pinned seed: {rep.problems}")
    return rep.digests


def analyze_rep(matrix, configs: dict, out: Path,
                trace_out: Path | None = None) -> tuple[float, list[str]]:
    """Time one `cv2x-bench analyze` call on every record the rep logged
    (the cell logs concatenated, untimed).  Returns its wall time and any
    problems with its report."""
    from cv2x_bench.analysis import safe_name
    log = out / "all-cells.jsonl"
    with open(log, "wb") as dst:
        for name in cell_names(matrix):
            stem = safe_name(name)
            dst.write((out / stem / f"{stem}.jsonl").read_bytes())
    report = out / "analyze"
    elapsed = procs.run_timed(
        procs.cli_command(["analyze", "--log", str(log), "--out", str(report)],
                          trace_out),
        out, "analyze", ANALYZE_TIMEOUT_S)
    with open(report / "stats.csv", encoding="utf-8", newline="") as fp:
        rows = list(csv.DictReader(fp))
    want = sum(expected_messages(configs[name]) for name in cell_names(matrix))
    if len(rows) != 1 or int(rows[0]["n"]) != want:
        return elapsed, [f"analyze of all cell logs: stats.csv {rows}, want n={want}"]
    return elapsed, []


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

class _CellClock:
    """Wraps `scenario.run_scenario` during an untraced rep: times each
    cell and takes a calibration sample after it, so each cell is scaled
    by the host speed around it.  The time spent calibrating is recorded so
    it can be taken out of the rep's own wall and CPU time."""

    def __init__(self, first_sample: float) -> None:
        self.samples = [first_sample]
        self.cells: list[tuple[str, float]] = []
        self.overhead_s = 0.0
        self.overhead_cpu_s = 0.0

    def wrap(self, run_scenario):
        def timed(cfg, *args, **kwargs):
            start = time.perf_counter()
            try:
                return run_scenario(cfg, *args, **kwargs)
            finally:
                self.cells.append((cfg.name, time.perf_counter() - start))
                cal_start, cal_cpu = time.perf_counter(), time.process_time()
                self.samples.append(calibrate.sample())
                self.overhead_s += time.perf_counter() - cal_start
                self.overhead_cpu_s += time.process_time() - cal_cpu
        return timed


@dataclasses.dataclass
class Timed:
    """An untraced rep and its analyze calls, raw and scaled to reference
    host speed (see calibrate.py)."""
    rep: Rep                     # wall_s and cpu_s exclude calibration
    analyze_s: list[float]
    scaled_wall_s: float
    scaled_cpu_s: float
    scaled_analyze_s: list[float]
    cell_walls: dict[str, float]          # scenario.cell.<name>.wall_s, raw
    scaled_cell_walls: list[float]


def _timed_rep(matrix, configs, out: Path, before: float) -> tuple[Timed, float]:
    """One untraced rep, calibrated cell by cell, and ANALYZE_CALLS analyze
    calls on its logs; returns it and the last calibration sample taken."""
    from cv2x_bench import scenario
    clock = _CellClock(before)
    original = scenario.run_scenario
    scenario.run_scenario = clock.wrap(original)
    try:
        rep = run_rep(matrix, configs, out)
    finally:
        scenario.run_scenario = original
    if len(clock.cells) != len(matrix.cells):
        raise RuntimeError(
            f"{len(clock.cells)} of {len(matrix.cells)} cells ran through "
            "scenario.run_scenario in the benchmark process.  The per-cell "
            "timings (latency_p50_ms, scenario.cell.*.wall_s) and their "
            "calibration wrap that function here (_CellClock); a program that "
            "runs cells elsewhere needs the benchmark to time them there.")
    after_rep = calibrate.sample()
    analyze_s, scaled_analyze_s = [], []
    calibration = calibrate.sample_process()
    for _ in range(ANALYZE_CALLS):
        elapsed, problems = analyze_rep(matrix, configs, out)
        after = calibrate.sample_process()
        analyze_s.append(elapsed)
        scaled_analyze_s.append(calibrate.scale(elapsed, calibration, after,
                                                calibrate.REFERENCE_PROCESS_S))
        calibration = after
        rep.problems += problems
    rep.wall_s -= clock.overhead_s
    rep.cpu_s -= clock.overhead_cpu_s
    samples = clock.samples
    scaled_cells = [calibrate.scale(wall, samples[i], samples[i + 1])
                    for i, (_, wall) in enumerate(clock.cells)]
    rest = rep.wall_s - sum(wall for _, wall in clock.cells)
    scaled_wall = sum(scaled_cells) + calibrate.scale(rest, before, after_rep)
    return Timed(
        rep, analyze_s, scaled_wall,
        rep.cpu_s * scaled_wall / rep.wall_s, scaled_analyze_s,
        {f"scenario.cell.{name}.wall_s": wall for name, wall in clock.cells},
        scaled_cells), calibrate.sample()


def _timed_reps(matrix, configs, work: Path, seconds: float,
                min_reps: int) -> list[Timed]:
    """Untraced reps, at least min_reps and until `seconds` have passed,
    each followed by its analyze calls.  Samples of every metric are
    spread over the whole run."""
    timed: list[Timed] = []
    calibration = calibrate.sample()
    start = time.perf_counter()
    while len(timed) < min_reps or time.perf_counter() - start < seconds:
        out = work / f"rep{len(timed)}"
        rep, calibration = _timed_rep(matrix, configs, out, calibration)
        timed.append(rep)
        shutil.rmtree(out)
    return timed


def _rep_problems(reps: list[Rep]) -> list[str]:
    problems = [p for rep in reps for p in rep.problems]
    if any(rep.digests != reps[0].digests for rep in reps):
        problems.append("outputs differ between repetitions at one seed")
    return problems


def run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """The untraced run that gives the end-to-end metrics."""
    matrices, configs = split_matrix(seed)
    matrix = matrices[workload]
    timed = _timed_reps(matrix, configs, work, seconds, MIN_REPS[workload])
    reps = [t.rep for t in timed]
    problems = _rep_problems(reps)
    problems += check_golden(workload, seed, reps[0].digests, work)
    return {
        "attempted": sum(rep.messages for rep in reps),
        "failed": sum(rep.messages - rep.intact for rep in reps),
        "problems": problems,
        "metrics": {
            "wall_s": statistics.median(t.scaled_wall_s for t in timed),
            "cpu_us_per_msg": statistics.median(t.scaled_cpu_s / t.rep.messages * 1e6
                                                for t in timed),
            "latency_p50_ms": statistics.median(
                statistics.median(cell) * 1e3
                for cell in zip(*(t.scaled_cell_walls for t in timed))),
            "analyze_s": statistics.median(s for t in timed
                                           for s in t.scaled_analyze_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "info": {"reps": len(reps),
                 "raw_s": {"wall_s": [t.rep.wall_s for t in timed],
                           "cpu_s": [t.rep.cpu_s for t in timed],
                           "analyze_s": [t.analyze_s for t in timed]},
                 "scaled_wall_s": [t.scaled_wall_s for t in timed]},
    }


def run_traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """The traced run that gives the per-layer metrics: one untraced rep
    as the reference for the tracing overhead, then TRACED_REPS traced reps
    whose counts must agree exactly."""
    import layers
    matrices, configs = split_matrix(seed)
    matrix = matrices[workload]
    untraced = _timed_reps(matrix, configs, work, 0.0, 1)[0]
    reps = [untraced.rep]
    traced: list[tuple[Rep, dict]] = []
    for i in range(TRACED_REPS):
        out = work / f"traced{i}"
        tracer = spans.Tracer(spans.RECORDED)
        spans.install_emulator(tracer)
        try:
            rep = run_rep(matrix, configs, out)
        finally:
            tracer.uninstall()
        trace_out = work / f"analyze{i}.spans.json"
        _, problems = analyze_rep(matrix, configs, out, trace_out)
        rep.problems += problems
        analyze_report = json.loads(trace_out.read_text(encoding="utf-8"))
        traced.append((rep, spans.merge_reports([tracer.report(), analyze_report])))
    problems = _rep_problems(reps + [rep for rep, _ in traced])
    values = [layers.layer_values(report) for _, report in traced]
    counts = {k: [v[k] for v in values] for k in BASELINE_COUNTS[workload]}
    unsteady = {k: c for k, c in counts.items() if len(set(c)) != 1}
    if unsteady:
        problems.append(f"counts differ between traced runs: {unsteady}")
    drift = {k: (BASELINE_COUNTS[workload][k], c[0]) for k, c in counts.items()
             if c[0] != BASELINE_COUNTS[workload][k]}
    problems += check_golden(workload, seed, reps[0].digests, work)
    metrics = {k: (values[0][k] if len({v[k] for v in values}) == 1
                   else statistics.median(v[k] for v in values)) for k in values[0]}
    metrics.update(untraced.cell_walls)
    metrics["tracing.overhead_s"] = (statistics.median(rep.wall_s for rep, _ in traced)
                                     - reps[0].wall_s)
    return {
        "attempted": sum(rep.messages for rep in reps + [r for r, _ in traced]),
        "failed": sum(rep.messages - rep.intact for rep in reps + [r for r, _ in traced]),
        "problems": problems,
        "metrics": metrics,
        "info": {"count_drift_from_baseline": drift,
                 "traced_wall_s": [rep.wall_s for rep, _ in traced],
                 "untraced_wall_s": reps[0].wall_s},
        "trace": traced[0][1],
    }
