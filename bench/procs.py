"""Child processes of the benchmark: start, read, stop and reap.

Every process is started through a `Children` context, whose exit stops
and reaps whatever is still running, whatever way the block is left
(error, timeout or signal).  Each child also gets SIGTERM from the kernel
when the benchmark process ends, so none outlives a benchmark that is
killed outright.  Reaping uses wait4 so each process's own CPU time and
peak resident memory are known after it ends.
"""

from __future__ import annotations

import ctypes
import functools
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import env

CLK_TCK = os.sysconf("SC_CLK_TCK")
PR_SET_PDEATHSIG = 1
_libc = ctypes.CDLL(None, use_errno=True)


def _prepare_child(parent: int) -> None:
    """Run in a new child before exec.  Restore SIGINT, on which the relay
    and vehicle stop, in case the benchmark inherited it ignored (as
    background jobs of a shell do); ask for SIGTERM when the process that
    started the child ends, and exit if that has already happened."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    _libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:
        os._exit(1)


def child_preexec():
    """preexec_fn for every process the benchmark starts."""
    return functools.partial(_prepare_child, os.getpid())


@dataclass
class Usage:
    cpu_s: float
    maxrss_mib: float


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time so far of a running process, all threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def cli_command(args: list[str], trace_out: Path | None = None) -> list[str]:
    """The `cv2x-bench <args>` command; traced, it runs under the launcher
    that wraps the program's layers and writes their spans to trace_out."""
    if trace_out is None:
        return [sys.executable, "-m", "cv2x_bench.cli", *args]
    return [sys.executable, str(env.BENCH / "sysproc.py"),
            "--trace-out", str(trace_out), "cli", *args]


class Child:
    def __init__(self, name: str, argv: list[str], log_dir: Path,
                 pipe_stdout: bool = False) -> None:
        self.name = name
        self._stderr = open(log_dir / f"{name}.stderr", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=env.ROOT, env=env.child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if pipe_stdout else subprocess.DEVNULL,
            stderr=self._stderr, preexec_fn=child_preexec())
        self.pid = self.proc.pid
        self._pidfd = os.pidfd_open(self.pid)
        self.usage: Usage | None = None
        self._buf = b""

    def read_line(self, deadline: float) -> str:
        """Next line of the child's stdout; TimeoutError past the deadline,
        EOFError if the child closed it."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"{self.name}: no output in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise EOFError(f"{self.name} exited: {self.stderr_tail()}")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode("utf-8", "replace")

    def rest_of_stdout(self) -> str:
        out = self._buf + self.proc.stdout.read()
        self._buf = b""
        return out.decode("utf-8", "replace")

    def poll(self) -> bool:
        """Reap the child if it has ended; True once it has."""
        if self.usage is not None:
            return True
        pid, status, ru = os.wait4(self.pid, os.WNOHANG)
        if pid == 0:
            return False
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.usage = Usage(cpu_s=ru.ru_utime + ru.ru_stime,
                           maxrss_mib=ru.ru_maxrss / 1024)
        self._stderr.close()
        os.close(self._pidfd)
        return True

    def wait(self, timeout: float) -> bool:
        """Wait up to timeout seconds for the child to end; True if it did."""
        if self.usage is None:
            select.select([self._pidfd], [], [], max(timeout, 0.0))
        return self.poll()

    def stop(self, sig: int = signal.SIGTERM, grace_s: float = 5.0) -> None:
        """Ask the child to end with sig; kill it if it is still there after
        the grace period.  Always reaps it."""
        if self.poll():
            return
        # os.kill, not Popen.send_signal: Popen would reap the child itself
        # and its resource usage would be lost.
        os.kill(self.pid, sig)
        if not self.wait(grace_s):
            os.kill(self.pid, signal.SIGKILL)
            self.wait(grace_s)

    def stderr_tail(self) -> str:
        path = Path(self._stderr.name)
        text = path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""
        return text.strip().splitlines()[-1] if text.strip() else "(no stderr)"


class Children:
    """Owns started processes; leaving the block stops and reaps them all."""

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self._children: list[Child] = []

    def start(self, name: str, argv: list[str], pipe_stdout: bool = False) -> Child:
        child = Child(name, argv, self.log_dir, pipe_stdout)
        self._children.append(child)
        return child

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc) -> None:
        for child in reversed(self._children):
            child.stop(grace_s=2.0)
            if child.proc.stdout is not None:
                child.proc.stdout.close()
        self._children.clear()


def run_timed(argv: list[str], log_dir: Path, name: str,
              timeout_s: float) -> float:
    """Run a command to completion; returns its wall time in seconds.
    Raises RuntimeError if it fails or outlives the timeout."""
    with Children(log_dir) as children:
        start = time.perf_counter()
        child = children.start(name, argv)
        if not child.wait(timeout_s):
            raise RuntimeError(f"{name} did not finish within {timeout_s:.0f} s")
        elapsed = time.perf_counter() - start
        if child.proc.returncode != 0:
            raise RuntimeError(f"{name} exited {child.proc.returncode}: "
                               f"{child.stderr_tail()}")
    return elapsed


def install_signal_exit() -> None:
    """Turn SIGTERM into SystemExit so cleanup blocks run."""
    def _exit(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, _exit)
