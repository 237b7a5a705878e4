"""Host speed calibration for the benchmark's timings.

    python3 bench/calibrate.py      # one run of the calibration loop
    python3 bench/calibrate.py ingest LOG OUT   # one run of the ingest job

The machines this benchmark runs on are shared: the speed at which they
execute the same Python code drifts by a factor of up to two over periods
of seconds to minutes, and every timing moves with it.  Medians over a
run do not average that out, so raw timings of the same code spread by
20-30% between runs.

So every timed sample of batch work is bracketed by calibration samples
and reported scaled to the host speed at which the calibration takes its
reference time:

    scaled = raw * reference / mean(calibration before, calibration after)

Work done in this process (a matrix cell) is calibrated with a fixed
pure-Python loop that does not touch the program (`sample`, REFERENCE_S).
Work done by a child process (a set-up probe, an analyze call, the system
processes starting) is calibrated with a fresh interpreter running that
loop (`sample_process`, REFERENCE_PROCESS_S), because process start-up
slows down with the host differently from code already running.  An
analyze call of real-loopback, a second or more on one large log, is
calibrated with a fresh interpreter that reads that log as analyze does
(`sample_ingest`: JSON lines to records, sorted columns, a CSV out;
REFERENCE_INGEST_S_PER_RECORD), whose time follows the host over the
same span and the same kind of work far more closely than the short loop.

A change to the program changes `raw` and not the calibration, so it
shows in the scaled value in full; a change of host speed moves both and
cancels.  The raw values are recorded next to the scaled ones.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from time import perf_counter

# The calibrations' times on the host the benchmark was sized on (2 vCPU
# Xeon, Python 3.11) when it ran fast, so scaled values there read close
# to raw seconds.
REFERENCE_S = 0.025
REFERENCE_PROCESS_S = 0.085
REFERENCE_INGEST_S_PER_RECORD = 10e-6
_REPEATS = 3


def _loop() -> float:
    """One run of the calibration loop: dict updates, sorting and JSON
    encoding in cache, then scattered reads over a few megabytes of small
    objects, as the program's own Python code does."""
    start = perf_counter()
    rng = random.Random(1)
    counts: dict[int, int] = {}
    for i in range(8_000):
        key = rng.randrange(2_000)
        counts[key] = counts.get(key, 0) + i
    json.dumps(sorted((v, k) for k, v in counts.items()))
    records = [(i, 3 * i) for i in range(40_000)]
    total = 0
    for _ in range(40_000):
        total += records[rng.randrange(40_000)][1]
    return perf_counter() - start


def sample() -> float:
    """The calibration loop's time now: the median of a few runs, so a
    single preemption does not count as a slow host."""
    return statistics.median(_loop() for _ in range(_REPEATS))


def sample_process(parallel: int = 1) -> float:
    """The time until `parallel` fresh interpreters, started together, have
    each run the calibration loop once: the calibration for work done by
    that many child processes at once, whose start-up slows down with the
    host differently from code already running."""
    start = perf_counter()
    children = [subprocess.Popen([sys.executable, __file__])
                for _ in range(parallel)]
    for child in children:
        if child.wait() != 0:
            raise RuntimeError("calibration loop failed")
    return perf_counter() - start


def _ingest(log: str, out: str) -> None:
    """The ingest job: parse each JSON record, derive its hop latencies,
    sort the columns and write them out."""
    records = []
    with open(log, encoding="utf-8") as fp:
        for line in fp:
            obj = json.loads(line)
            records.append({"seq": obj["seq"], "e2e": obj["t4"] - obj["t1"],
                            "ul": obj["t2"] - obj["t1"], "dl": obj["t4"] - obj["t3"],
                            "size": obj["size"]})
    columns = {k: sorted(r[k] for r in records) for k in ("e2e", "ul", "dl")}
    with open(out, "w", encoding="utf-8") as fp:
        fp.write(json.dumps({k: [v[int(q * (len(v) - 1))] for q in (0.5, 0.9, 0.99)]
                             for k, v in columns.items() if v}) + "\n")
        for r in records:
            fp.write(f"{r['seq']},{r['e2e']},{r['ul']},{r['dl']},{r['size']}\n")


def sample_ingest(log, out) -> float:
    """The time a fresh interpreter takes to run the ingest job on `log`,
    writing to `out`: the calibration for an analyze call on that log,
    at REFERENCE_INGEST_S_PER_RECORD times its records."""
    start = perf_counter()
    if subprocess.run([sys.executable, __file__, "ingest", str(log), str(out)]).returncode:
        raise RuntimeError("calibration ingest job failed")
    return perf_counter() - start


def scale(raw: float, before: float, after: float,
          reference: float = REFERENCE_S) -> float:
    """raw, taken between two calibration samples, at reference speed."""
    return raw * reference / ((before + after) / 2)


if __name__ == "__main__":
    if sys.argv[1:2] == ["ingest"]:
        _ingest(*sys.argv[2:4])
    else:
        _loop()
