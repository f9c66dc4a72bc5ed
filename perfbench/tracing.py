"""In-memory span recording for the traced benchmark run.

Spans are recorded by the benchmark around its calls into the program's
public functions; nothing inside the program is instrumented.  Each span
holds a name, start, end, parent span and a run id shared by the spans
of one request.  Spans live in flat typed arrays while the run is going
(a traced serving loop records hundreds of thousands of them) and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from pathlib import Path
from typing import Dict

import numpy as np

NO_PARENT = -1


class SpanRecorder:
    """Records spans; ``open``/``close`` nest through an explicit stack."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []

    def open(self, name: str, run_id: int = 0) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.run_id.append(run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End span ``index``, which must be the innermost open one."""
        self.end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} is innermost")

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds.

        A span's self time is its duration minus the durations of its
        direct children, which nest inside it.
        """
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child_time = np.zeros(len(duration))
        has_parent = parent != NO_PARENT
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        names = np.frombuffer(self.name_id, dtype=np.int32)
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float((duration[mask] - child_time[mask]).sum()),
            }
        return out

    def write(self, path: Path) -> Path:
        """Write every span and the per-name self-time table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run_id=np.frombuffer(self.run_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_times=json.dumps(self.self_times()),
        )
        return path


def span_cost_s(pairs: int = 10_000, rounds: int = 7) -> float:
    """Median seconds one ``open``/``close`` pair costs, nested one deep.

    Timed on a throwaway recorder, so the figure is the recorder's own
    cost per span and does not depend on what the spans surround.
    """
    times = []
    for _ in range(rounds):
        recorder = SpanRecorder()
        outer = recorder.open("outer")
        start = time.perf_counter()
        for _ in range(pairs):
            recorder.close(recorder.open("span"))
        times.append((time.perf_counter() - start) / pairs)
        recorder.close(outer)
    return statistics.median(times)
