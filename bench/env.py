"""Where the benchmark finds the program, and the environment it runs in.

The benchmark runs from the root of a source checkout and builds nothing:
it imports `cv2x_bench` from `src/` and starts the system processes with
the same interpreter.  All files it writes go under `.bench_out/`.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MATRIX_CONFIG = ROOT / "configs" / "table1_matrix.json"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent

# config_from_obj lets this variable override every cell's derived seed.
SEED_ENV_VAR = "CV2X_SEED"


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def prepare() -> None:
    """Make `cv2x_bench` importable from the checkout and drop the seed
    override from this process; raises SetupError if the program is not
    there."""
    if not (SRC / "cv2x_bench" / "__init__.py").is_file():
        raise SetupError(f"no cv2x_bench package under {SRC}")
    if not MATRIX_CONFIG.is_file():
        raise SetupError(f"missing matrix config {MATRIX_CONFIG}")
    os.environ.pop(SEED_ENV_VAR, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    `src/` first on the path and no seed override."""
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def machine_info(seed: int) -> dict:
    """What a result depends on besides the code: seed, interpreter, cores,
    CPU model and the load average when the run started."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "loadavg": list(os.getloadavg())}


def cpu_ticks() -> list[int]:
    """Host-wide CPU time counters of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq and steal."""
    with open("/proc/stat", encoding="ascii") as fp:
        return [int(x) for x in fp.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time between two cpu_ticks() readings that the
    hypervisor gave to other machines: when it is high, timings of the
    run are slower than the program is."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta), 1)
