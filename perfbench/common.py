"""Shared measurement helpers: op accounting, timing, memory, references."""

from __future__ import annotations

import functools
import hashlib
import os
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run state (stores, traces, reports); listed in the root .gitignore.
WORK = ROOT / ".perfbench"
#: Seconds between two readings of the machine's speed.
PROBE_INTERVAL_S = 0.1
#: Readings whose median is the machine's speed at a moment: half a second.
PHASE_PROBES = 5
#: What the speed probe loops over: small ints, which the interpreter
#: never allocates, so the probe's time does not depend on the state of
#: the program's heap.
PROBE_INPUT = tuple(i & 127 for i in range(2000))
#: The probe's time on the reference machine (a 2-vCPU Xeon VM, quiet
#: phase).  Reported times are seconds at that speed.
REFERENCE_PROBE_S = 115e-6


class Ops:
    """Attempted and failed ops plus the latency of every op that succeeded.

    An op fails when it raises or when its output disagrees with the
    reference; a failed op adds no latency sample.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Failed ops whose output was wrong (not merely raised).
        self.wrong = 0
        self.errors: Counter = Counter()
        self.latency_s = array("d")
        self.start_s = array("d")

    def ok(self, seconds: float, start: float) -> None:
        self.attempted += 1
        self.latency_s.append(seconds)
        self.start_s.append(start)

    def fail(self, reason: str, *, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += wrong
        self.errors[reason] += 1

    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


class Speed:
    """The machine's speed through a run, and times rescaled by it.

    Other tenants of a shared machine slow CPU work down, by as much as
    2x, in phases that last from a second to minutes, so the same code
    reads slower in one run than in the next.  While active (``with
    speed:``), a timer signal runs a fixed pure-interpreter loop, which
    does nothing of the program and allocates nothing, every
    ``PROBE_INTERVAL_S`` in the main thread; its time is a reading of the
    machine's speed.  After the block, :meth:`scaled` turns a wall
    interval into seconds on the reference machine: each stretch between
    two readings counts in proportion to the reference probe time over
    the median of the ``PHASE_PROBES`` readings around it, and the
    probes' own time is left out.  Every op is rescaled; none is dropped.
    """

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self._previous = None
        self._probing = False

    def probe(self, *_) -> None:
        # A signal can arrive while a probe runs (a probe stalled for
        # longer than the interval); one reading at a time keeps them in order.
        if self._probing:
            return
        self._probing = True
        perf_counter = time.perf_counter
        get = {0: 1, 1: 2}.get
        start = perf_counter()
        total = 0
        for i in PROBE_INPUT:
            total ^= get(i & 1) ^ i
        self.at.append(start)
        self.took.append(perf_counter() - start)
        self._probing = False

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def _readings(self) -> Tuple[np.ndarray, np.ndarray]:
        # Copies: the timer signal may append a reading at any bytecode
        # while a view of the arrays is alive, which would raise there.
        return np.array(self.at), np.array(self.took)

    def slowdown(self) -> np.ndarray:
        """Per reading: the machine's slowdown against the reference."""
        _, took = self._readings()
        half = PHASE_PROBES // 2
        return np.array(
            [np.median(took[max(0, k - half) : k + half + 1]) for k in range(len(took))]
        ) / REFERENCE_PROBE_S

    def scaled(self, start, end) -> np.ndarray:
        """Reference-machine seconds of the wall intervals ``[start, end)``."""
        at, took = self._readings()
        if len(at) < PHASE_PROBES:
            raise ValueError(f"{len(at)} speed readings; the run is too short")
        rate = 1.0 / self.slowdown()
        free = at + took  # where each stretch between probes starts
        stretch = np.diff(at) - took[:-1]
        origin = np.concatenate(([0.0], np.cumsum(stretch * rate[:-1])))

        def position(t):
            k = np.clip(np.searchsorted(at, t, side="right") - 1, 0, len(at) - 1)
            return origin[k] + rate[k] * np.maximum(t - free[k], 0.0)

        return position(np.asarray(end)) - position(np.asarray(start))

    def note(self) -> Dict[str, float]:
        slow = self.slowdown()
        return {
            "readings": float(len(slow)),
            "slowdown_min": float(slow.min()),
            "slowdown_median": float(np.median(slow)),
            "slowdown_max": float(slow.max()),
        }


def intervals(fn: Callable[[], object], reps: int) -> Tuple[List[float], List[float]]:
    """Start and end wall times of each of ``reps`` calls of ``fn``."""
    starts, ends = [], []
    for _ in range(reps):
        starts.append(time.perf_counter())
        fn()
        ends.append(time.perf_counter())
    return starts, ends


def loop_rates(ops: Ops, speed: Speed) -> Tuple[np.ndarray, float]:
    """Rescaled latencies of a loop's successful ops, and their ops per second.

    Throughput is over the whole loop, from the first op's start to the
    last op's end.
    """
    start = np.frombuffer(ops.start_s)
    end = start + np.frombuffer(ops.latency_s)
    latency = speed.scaled(start, end)
    return latency, len(latency) / float(speed.scaled(start[0], end[-1]))


def timings(fn: Callable[[], object], reps: int) -> List[float]:
    """Wall seconds of each of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def per_call_s(
    variants: Dict[str, Callable[[object], object]], args: Sequence, rounds: int = 15
) -> Dict[str, float]:
    """Median seconds per call of each variant over ``args``, over ``rounds``.

    The variants are timed in alternation, round by round, so a drift in
    machine speed does not land on one of them and their differences hold.
    """
    samples: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(rounds):
        for name, fn in variants.items():
            start = time.perf_counter()
            for arg in args:
                fn(arg)
            samples[name].append((time.perf_counter() - start) / len(args))
    return {name: statistics.median(values) for name, values in samples.items()}


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def import_program(modules: Iterable[str]) -> None:
    """Have a fresh interpreter import ``modules``.

    Program start-up is part of set-up: work moved to import time shows
    there.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import " + ", ".join(modules)
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def reference_configs(deployed, shapes: Sequence) -> List:
    """The configuration each shape should get, without the serving path.

    Descends the fitted tree with :meth:`Tree.apply_loop` (the scalar
    reference walk) and resolves each leaf through the classifier's
    classes to the pruned set, as the classifier's ``predict`` defines.
    """
    selector = deployed.selector
    configs = selector.pruned.configs
    constant = getattr(selector, "_constant", None)
    if constant is not None:
        return [configs[int(constant)]] * len(shapes)
    tree = selector.estimator.tree_
    classes = selector.estimator.classes_
    leaves = tree.apply_loop(np.stack([s.features() for s in shapes]))
    return [configs[int(classes[int(np.argmax(tree.value[leaf]))])] for leaf in leaves]


def geomean_vs_best(deployed, test) -> float:
    """Geometric mean of the chosen config's performance over the best of all.

    Recomputed from ``test.normalized()`` with the reference decisions,
    independent of ``evaluate_selector``.
    """
    normalized = test.normalized()
    chosen = reference_configs(deployed, test.shapes)
    cols = [test.config_index(config) for config in chosen]
    achieved = normalized[np.arange(test.n_shapes), cols]
    return float(np.exp(np.mean(np.log(achieved))))


@functools.lru_cache(maxsize=None)
def src_sha256() -> str:
    """SHA-256 over the program's source files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> Dict[str, object]:
    """Facts every result is recorded with."""
    import platform

    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
        except OSError:  # no git on this machine
            pass
        else:
            sha = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": src_sha256(),
    }
