"""Starting, watching and stopping the program's processes.

Every program process gets an explicit environment (nothing inherited
that could change what it does), runs in its own session so that the
whole tree — server and pool workers, or router, replicas and their
workers — shares one process group, and is stopped with SIGTERM and
reaped before the benchmark moves on.
"""

from __future__ import annotations

import os
import platform
import selectors
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Longest a program may take to print its banner or ready line.
READY_TIMEOUT_S = 60.0
#: Longest a program may take to drain and exit after SIGTERM.
STOP_TIMEOUT_S = 30.0


def program_env() -> dict[str, str]:
    """The whole environment of a program process.

    The disk substrate cache is off and nothing else of the caller's
    ``SUSTAINABLE_AI_*`` configuration (ledger directory, faults, runtime
    invariant checks) reaches the program.  ``PYTHONDONTWRITEBYTECODE`` is
    not passed on either: bytecode caching is always on, so the untimed
    first start of a run compiles what the timed starts then load.
    """
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "SUSTAINABLE_AI_CACHE_DIR": "off",
    }


def bytecode_record() -> dict[str, object]:
    """Whether programs cache bytecode, and whether the runner's was cached
    before this run started (false only on a checkout's first run)."""
    tag = sys.implementation.cache_tag
    cached = SRC / "repro" / "experiments" / "__pycache__" / f"runner.{tag}.pyc"
    return {
        "cache_on": "PYTHONDONTWRITEBYTECODE" not in program_env(),
        "runner_cached_before_run": cached.exists(),
    }


def machine_record() -> dict[str, object]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "platform": platform.platform(),
    }


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of one process group, from ``/proc``."""
    members = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def fastest_cpu(probe_s: float = 0.1) -> int:
    """The allowed CPU on which a short interpreter loop runs fastest now.

    The CPUs of a shared host slow down and speed up independently, as
    their neighbours' load comes and goes; the measured phase runs on the
    one that is faster when it starts.  Leaves this process's affinity as
    it found it.
    """
    allowed = os.sched_getaffinity(0)
    best, best_rate = min(allowed), 0.0
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            loops = 0
            while time.perf_counter() - start < probe_s:
                for _ in range(1000):
                    pass
                loops += 1
            rate = loops / (time.perf_counter() - start)
            if rate > best_rate:
                best, best_rate = cpu, rate
    finally:
        os.sched_setaffinity(0, allowed)
    return best


def _vmhwm_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Program:
    """One started program: its process group, stdout lines and exit."""

    def __init__(self, argv: list[str], log_path: Path) -> None:
        self.argv = argv
        self._log = open(log_path, "ab")
        self.spawn_ns = time.perf_counter_ns()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
            bufsize=0,
        )
        self._pending = b""
        self.returncode: int | None = None
        self.maxrss_kib = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_line(self, timeout: float = READY_TIMEOUT_S) -> str:
        """The next stdout line; waits on the pipe, never by sleeping."""
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._pending:
                left = deadline - time.monotonic()
                if left <= 0 or not selector.select(left):
                    raise TimeoutError(f"no output line from {self.argv[:4]} in {timeout}s")
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"{self.argv[:4]} exited before printing a line "
                        f"(exit {self.proc.wait()})"
                    )
                self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line.decode("utf-8", "replace")

    def banner_port(self) -> int:
        """Port from the ``listening on http://HOST:PORT`` banner."""
        line = self.read_line()
        if "listening on http://" not in line:
            raise RuntimeError(f"unexpected banner: {line!r}")
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def rest_of_output(self) -> str:
        """Everything the program printed after the lines already read."""
        assert self.proc.stdout is not None
        return (self._pending + self.proc.stdout.read()).decode("utf-8", "replace")

    def pin(self, cpus: set[int]) -> None:
        """Restrict every thread of the program's process group to ``cpus``.

        Processes the program forks later inherit the restriction.
        """
        for pid in _group_members(self.pid):
            try:
                threads = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue  # the process ended meanwhile
            for tid in threads:
                try:
                    os.sched_setaffinity(int(tid), cpus)
                except OSError:
                    pass  # the thread ended meanwhile

    def peak_rss_mib(self) -> float:
        """Summed VmHWM of every live process of the program's group."""
        return sum(_vmhwm_kib(pid) for pid in _group_members(self.pid)) / 1024.0

    def wait(self, timeout: float) -> int:
        """Reap the leader (recording its ``ru_maxrss``) within ``timeout``.

        The leader is always reaped here with ``wait4``, never through
        ``Popen.wait``, so its resource usage is not lost.  Without pidfds
        the exit is polled with ``WNOHANG``.
        """
        if self.returncode is not None:
            return self.returncode
        if self.proc.returncode is not None:  # already reaped through Popen
            self.returncode = self.proc.returncode
            return self.returncode
        try:
            pidfd = os.pidfd_open(self.pid)
        except (AttributeError, OSError):
            pidfd = None
        if pidfd is not None:
            try:
                with selectors.DefaultSelector() as selector:
                    selector.register(pidfd, selectors.EVENT_READ)
                    if not selector.select(timeout):
                        raise subprocess.TimeoutExpired(self.argv, timeout)
            finally:
                os.close(pidfd)
            _pid, status, usage = os.wait4(self.pid, 0)
        else:
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(self.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() >= deadline:
                    raise subprocess.TimeoutExpired(self.argv, timeout)
                time.sleep(0.01)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.maxrss_kib = usage.ru_maxrss
        return self.returncode

    def stop(self) -> int:
        """SIGTERM, reap the leader, then make sure the group is gone."""
        try:
            if self.returncode is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    os.killpg(self.pid, signal.SIGKILL)
                    self.wait(STOP_TIMEOUT_S)
            self._reap_group()
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._log.close()
        return self.returncode if self.returncode is not None else -1

    def _reap_group(self) -> None:
        """Wait for stragglers of the group; SIGKILL them past the timeout."""
        for signum in (None, signal.SIGKILL):
            if signum is not None:
                try:
                    os.killpg(self.pid, signum)
                except ProcessLookupError:
                    return
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while time.monotonic() < deadline:
                if not _group_members(self.pid):
                    return
                time.sleep(0.01)
        raise RuntimeError(f"processes of group {self.pid} survived SIGKILL")
