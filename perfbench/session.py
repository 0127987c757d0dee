"""One Ray session per workload: start, import probe, memory, idling, stop.

Workers get the repository root on ``PYTHONPATH`` through the session's
runtime env, so they import ``scheduler_ray`` whatever directory the
benchmark was launched from.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import tempfile
import time

#: AF_UNIX socket paths are limited to 107 bytes on Linux; Ray puts its
#: sockets at <temp>/session_<date>_<usec>_<pid>/sockets/plasma_store
_SOCKET_SUFFIX = 72
_SOCKET_MAX = 107


class ProbeError(RuntimeError):
    pass


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after the last ')'
        ppid = int(stat[stat.rfind(")") + 2 :].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants() -> list[int]:
    """Every process started by this one, directly or not."""
    kids = _children()
    out, todo = [], [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _start_time(pid: int) -> str | None:
    """The process's start time (tells a live pid from a reused one), or
    None once it has ended; a zombie counts as ended."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    fields = stat[stat.rfind(")") + 2 :].split()
    return None if fields[0] in ("Z", "X") else fields[19]


def _cpu_ticks() -> dict[int, int]:
    """User plus system CPU time, in clock ticks, of this process and each
    of its descendants."""
    out = {}
    for pid in [os.getpid()] + descendants():
        try:
            with open(f"/proc/{pid}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        out[pid] = int(fields[11]) + int(fields[12])
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Session:
    """A local Ray session with ``num_cpus`` CPUs whose state lives under
    ``work`` (falling back to a private temp dir when that path is too long
    for Ray's sockets)."""

    def __init__(self, repo_root: str, work: str, num_cpus: int = 1):
        self.repo_root = repo_root
        self.num_cpus = num_cpus
        self.temp_dir = os.path.join(work, "r")
        self.own_temp = False
        if len(os.path.abspath(self.temp_dir)) + _SOCKET_SUFFIX > _SOCKET_MAX:
            self.temp_dir = tempfile.mkdtemp(prefix="pbray")
            self.own_temp = True
        self.procs: dict[int, str | None] = {}

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=768 * 2**20,
            _temp_dir=os.path.abspath(self.temp_dir),
            runtime_env={"env_vars": {"PYTHONPATH": self.repo_root}},
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        self.probe()

    def probe(self) -> None:
        """One task that imports the package in a worker: a broken worker
        environment fails here, in one line, instead of inside Ray Data."""
        import ray

        @ray.remote(num_cpus=0)
        def where() -> str:
            import scheduler_ray.pipelines.flagship  # noqa: F401

            return scheduler_ray.__file__

        try:
            ray.get(where.remote(), timeout=120)
        except Exception as ex:  # noqa: BLE001 — any worker failure is fatal here
            raise ProbeError(f"Ray workers cannot import scheduler_ray: {ex!r}".splitlines()[0])

    def reset_peak(self) -> None:
        """Reset VmHWM to the current RSS in this process and every
        descendant, so the next :meth:`peak_rss_mb` covers only what runs
        in between."""
        for p in [os.getpid()] + descendants():
            try:
                with open(f"/proc/{p}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:
                pass

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over this process and every descendant (GCS,
        raylet, workers); also remembers them so :meth:`stop` can wait."""
        pids = [os.getpid()] + descendants()
        for p in pids[1:]:
            self.procs.setdefault(p, _start_time(p))
        return sum(_hwm_kb(p) for p in pids) / 1024.0

    def quiesce(self, window_s: float = 0.2, busy: float = 0.3, timeout_s: float = 5.0) -> float:
        """Wait until this process and its descendants use less than
        ``busy`` of a CPU over ``window_s``.  With one Ray CPU, the teardown of
        the previous Ray Data execution (a worker process that Ray starts
        late and that spends about a second importing) would otherwise run
        inside the next timed iteration.  Returns the wait."""
        limit = busy * window_s * os.sysconf("SC_CLK_TCK")
        t0 = time.perf_counter()
        before = _cpu_ticks()
        while time.perf_counter() - t0 < timeout_s:
            time.sleep(window_s)
            now = _cpu_ticks()
            # a process that ended meanwhile used no CPU in the window
            if sum(max(0, t - before.get(p, 0)) for p, t in now.items()) <= limit:
                break
            before = now
        return time.perf_counter() - t0

    def stop(self, timeout: float = 30.0) -> None:
        import ray

        for p in descendants():
            self.procs.setdefault(p, _start_time(p))
        ray.shutdown()
        alive = dict(self.procs)
        self.procs.clear()
        for sig, wait in ((None, timeout), (signal.SIGKILL, 10.0)):
            for p in alive if sig else ():
                try:
                    os.kill(p, sig)
                except OSError:
                    pass
            deadline = time.monotonic() + wait
            while alive and time.monotonic() < deadline:
                alive = {p: st for p, st in alive.items() if st and _start_time(p) == st}
                time.sleep(0.1)
            if not alive:
                return
        raise RuntimeError(f"processes still running after shutdown: {sorted(alive)}")

    def cleanup(self) -> None:
        if self.own_temp:
            shutil.rmtree(self.temp_dir, ignore_errors=True)
