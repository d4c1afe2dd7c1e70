"""The benchmark's own Ray cluster, its hardware record and phase deadlines.

Each run starts a private local cluster pinned to ``RAY_CPUS`` logical
CPUs, so runs on one box see the same parallelism whatever its core count,
and stops only that cluster.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import tempfile
import threading
import time

RAY_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
FREE_CPUS_TIMEOUT_S = 20.0
SPILL_PERIOD_S = 0.1


class PhaseTimeout(Exception):
    def __init__(self, phase: str, seconds: float):
        super().__init__(f"phase {phase!r} missed its {seconds:.0f} s deadline")
        self.phase = phase


class Deadlines:
    """Runs each phase in a helper thread and gives up on it after its own
    deadline or the run's, whichever is first, so a hang becomes a named
    failure instead of an unrecorded kill."""

    def __init__(self, run_budget_s: float):
        self.end = time.monotonic() + run_budget_s
        self.spent: dict[str, float] = {}  # wall seconds per phase name

    def left(self) -> float:
        return self.end - time.monotonic()

    def run(self, phase: str, seconds: float, fn, *args, **kwargs):
        limit = min(seconds, self.left())
        box: dict = {}

        def target():
            try:
                box["value"] = fn(*args, **kwargs)
            except BaseException as e:  # handed to the caller below
                box["error"] = e

        t = threading.Thread(target=target, name=f"phase-{phase}", daemon=True)
        t0 = time.monotonic()
        t.start()
        t.join(max(limit, 0.0))
        self.spent[phase] = self.spent.get(phase, 0.0) + time.monotonic() - t0
        if t.is_alive():
            raise PhaseTimeout(phase, limit)
        if "error" in box:
            raise box["error"]
        return box.get("value")


class Cluster:
    """A local Ray cluster owned by this process.  ``close`` shuts down only
    this cluster (never ``ray stop``) and removes its session directory."""

    def __init__(self, root: str, trace_dir: str | None):
        import ray

        # short and outside the checkout: AF_UNIX socket paths hold at most
        # 107 bytes, and Ray appends ~63 bytes of session and socket names
        self.temp_dir = tempfile.mkdtemp(prefix="rxb")
        # workers import the program and the benchmark from this checkout,
        # wherever the benchmark was started
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        env = {"PYTHONPATH": path, "RAY_DATA_DISABLE_PROGRESS_BARS": "1"}
        runtime_env: dict = {"env_vars": env}
        if trace_dir is not None:
            env["RXB_TRACE_DIR"] = trace_dir
            runtime_env["worker_process_setup_hook"] = "rxbench.trace.install_worker"
        # spill into a directory of our own, watched by a SpillMeter
        spill_dir = os.path.join(self.temp_dir, "spill")
        spill_cfg = {"type": "filesystem", "params": {"directory_path": spill_dir}}
        self.spill: SpillMeter | None = None
        t0 = time.perf_counter()
        try:
            ray.init(
                address="local",
                num_cpus=RAY_CPUS,
                object_store_memory=OBJECT_STORE_BYTES,
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                _temp_dir=self.temp_dir,
                runtime_env=runtime_env,
                _system_config={"object_spilling_config": json.dumps(spill_cfg)},
            )
            self.init_s = time.perf_counter() - t0
            self.spill = SpillMeter(spill_dir)
            import ray.data

            ray.data.DataContext.get_current().enable_progress_bars = False
            logging.getLogger("ray.data").setLevel(logging.ERROR)
            logging.getLogger("ray").setLevel(logging.ERROR)
            self.cpus = int(ray.cluster_resources().get("CPU", 0))
            if self.cpus != RAY_CPUS:
                raise RuntimeError(f"cluster has {self.cpus} CPUs, not {RAY_CPUS}")
        except BaseException:
            self.close()
            raise

    def spilled_bytes(self) -> int:
        """Object-store bytes spilled since the cluster started."""
        return self.spill.total()

    def wait_free_cpus(self, n: int) -> None:
        """Block until ``n`` CPUs are free: an actor that asks for a CPU the
        cluster never frees would block ``ray.get`` forever."""
        import ray

        if n > self.cpus:
            raise RuntimeError(
                f"{n} searcher actors need {n} CPUs; the cluster has {self.cpus}"
            )
        end = time.monotonic() + FREE_CPUS_TIMEOUT_S
        while ray.available_resources().get("CPU", 0) < n:
            if time.monotonic() > end:
                raise RuntimeError(f"{n} CPUs not free after {FREE_CPUS_TIMEOUT_S} s")
            time.sleep(0.05)

    def close(self) -> None:
        import ray

        if self.spill is not None:
            self.spill.stop()
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(self.temp_dir, ignore_errors=True)


class SpillMeter:
    """Bytes Ray has spilled to ``spill_dir``: every spill file seen, at its
    largest size, sampled every ``SPILL_PERIOD_S``.  (Ray's own counter is served
    over gRPC, whose Python package this environment does not have.)"""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.seen: dict[str, int] = {}
        self.lock = threading.Lock()
        self.done = threading.Event()
        self.thread = threading.Thread(
            target=self._watch, name="spill-meter", daemon=True
        )
        self.thread.start()

    def _sample(self) -> None:
        for root, _, files in os.walk(self.spill_dir):
            for name in files:
                path = os.path.join(root, name)
                try:
                    size = os.path.getsize(path)
                except FileNotFoundError:  # restored and deleted meanwhile
                    continue
                with self.lock:
                    self.seen[path] = max(size, self.seen.get(path, 0))

    def _watch(self) -> None:
        while not self.done.wait(SPILL_PERIOD_S):
            self._sample()

    def total(self) -> int:
        self._sample()
        with self.lock:
            return sum(self.seen.values())

    def stop(self) -> None:
        self.done.set()
        self.thread.join(timeout=5)


def _proc_stat_steal() -> int:
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def hardware() -> dict:
    """What a record's numbers depend on; records whose keys differ are not
    comparable (see compare.py)."""
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
                break
    nproc = subprocess.run(
        ["nproc"], capture_output=True, text=True, timeout=10
    ).stdout.strip()
    return {
        "ray_cpus": RAY_CPUS,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": int(nproc) if nproc.isdigit() else None,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "cpu_model": model,
        "mem_total_gb": round(mem_kb / 2**20, 1),
    }


class StealMeter:
    """Host-steal jiffies accrued between construction and ``read``."""

    def __init__(self):
        self.start = _proc_stat_steal()

    def read(self) -> int:
        return _proc_stat_steal() - self.start
