"""One measured workload repetition, in a fresh process.

Usage: python3 child.py SPEC.json RESULT.json

SPEC names the repository root, the CLI commands to run in order, the
set-up functions each command must call, and whether to trace. The commands
run through ``kancredit.cli.main`` in this process. RESULT receives, once and
after the last command, each command's exit code, set-up time and wall time,
the process's peak RSS and, when traced, the per-layer summary. Set-up and
wall times leave out the steal time that ``/proc/stat`` reports for them:
time in which the hypervisor ran another guest while this machine's CPUs had
work, which no change to the program can win back.

An untraced repetition also times the host: every ``PROBE_INTERVAL_S`` a
timer signal runs a fixed probe shot (a Python loop, then a small numpy sort;
no kancredit code) on the measured thread. The result holds, for each
command, the median time of the shot's Python loop inside its set-up calls,
and the median time of the whole shot inside the rest of the command. The
shots' own time is taken out of the set-up and wall times.

Exit code 0 means the repetition was measured (a failing command is data, not
an error here); 3 means the program does not have the shape the benchmark
measures, such as a set-up function that is missing or never called.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing

SETUP_FUNCTIONS = ("load_gmsc_csv", "preprocess", "split", "load_network")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
PROBE_INTERVAL_S = 0.05
PROBE_LEAD_SHOTS = 8  # taken before the first command, for windows with too few samples
PROBE_MIN_SAMPLES = 3
PROBE_MAX_SHOTS = 1 << 16  # 54 minutes of shots


def steal_seconds() -> float:
    """Steal time of all CPUs since boot, from ``/proc/stat``; 0 where it is not reported.

    The harness's own process only waits while a repetition runs, so nearly
    all of it falls on the CPU the measured process runs on.
    """
    try:
        with open("/proc/stat", "rb") as fh:
            return int(fh.readline().split()[8]) / CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


class HostProbe:
    """Times a fixed piece of work on the measured thread, from a timer signal.

    The shots run between the program's own bytecodes, on the same CPU and at
    the same moments, so they slow down with the host when the workload does.
    A shot keeps no Python object alive: samples go into preallocated arrays
    and the sort is in place. A tuple kept per shot would pin partly freed
    allocator arenas and raise the peak RSS by about 30 MB.
    """

    def __init__(self):
        self.count = 0
        self._starts = np.empty(PROBE_MAX_SHOTS)
        self._loop = np.empty(PROBE_MAX_SHOTS)  # the Python loop alone
        self._seconds = np.empty(PROBE_MAX_SHOTS)  # the whole shot
        self._data = np.random.default_rng(0).random(4000)
        self._work = np.empty_like(self._data)

    def shot(self, *_):
        if self.count == PROBE_MAX_SHOTS:
            return
        start = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        loop_end = time.perf_counter()
        for _ in range(4):
            self._work[:] = self._data
            self._work.sort()
        self._starts[self.count] = start
        self._loop[self.count] = loop_end - start
        self._seconds[self.count] = time.perf_counter() - start
        self.count += 1

    def start(self):
        for _ in range(PROBE_LEAD_SHOTS):
            self.shot()
        signal.signal(signal.SIGALRM, self.shot)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, intervals, loop_only: bool):
        """(shot seconds inside the [start, end) intervals, median reading, shots).

        The reading is the Python loop's time when ``loop_only``, else the
        whole shot's. A window with fewer than PROBE_MIN_SAMPLES shots takes
        the median over every shot so far.
        """
        n = self.count  # a shot may land while this runs
        starts, seconds = self._starts[:n], self._seconds[:n]
        reading = (self._loop if loop_only else self._seconds)[:n]
        inside = np.zeros(n, dtype=bool)
        for a, b in intervals:
            inside |= (starts >= a) & (starts < b)
        shots = int(inside.sum())
        median = np.median(reading[inside] if shots >= PROBE_MIN_SAMPLES else reading)
        return float(seconds[inside].sum()), float(median), shots


class SetupTimer:
    """Times the CLI's bindings of the set-up functions."""

    def __init__(self, cli):
        self.reset()
        for name in SETUP_FUNCTIONS:
            fn = getattr(cli, name, None)
            if not callable(fn):
                raise tracing.TraceError(f"kancredit.cli.{name} is missing")
            setattr(cli, name, self._wrap(name, fn))

    def _wrap(self, name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            steal = steal_seconds()
            try:
                return fn(*args, **kwargs)
            finally:
                self.last_steal = steal_seconds()
                self.last_end = time.perf_counter()
                self.intervals.append((start, self.last_end))
                self.steal += self.last_steal - steal
                self.called.add(name)

        return timed

    def reset(self):
        self.intervals = []
        self.steal = 0.0
        self.last_end = self.last_steal = None
        self.called = set()


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import kancredit.cli

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    setup = SetupTimer(kancredit.cli)
    probe = None if tracer is not None else HostProbe()
    if probe is not None:
        probe.start()

    commands = []
    for command in spec["commands"]:
        setup.reset()
        cpu_start = time.process_time()
        rc = kancredit.cli.main(command["argv"])
        end_steal = steal_seconds()
        end = time.perf_counter()
        entry = {"rc": rc, "setup_s": sum(b - a for a, b in setup.intervals) - setup.steal,
                 "setup_steal_s": setup.steal, "wall_s": None, "cpu_s": time.process_time() - cpu_start}
        if rc == 0:
            missing = set(command["setup"]) - setup.called
            if missing:
                raise tracing.TraceError(f"set-up never called: {sorted(missing)}")
            entry["wall_steal_s"] = end_steal - setup.last_steal
            entry["wall_s"] = end - setup.last_end - entry["wall_steal_s"]
            if probe is not None:
                # Set-up parses the CSV into Python records, so the loop
                # tracks its speed best; the rest is mostly numpy.
                for key, intervals, loop_only in (("setup", setup.intervals, True),
                                                  ("wall", [(setup.last_end, end)], False)):
                    spent, median, shots = probe.window(intervals, loop_only)
                    entry[f"{key}_s"] -= spent
                    entry[f"{key}_probe_s"] = median
                    entry[f"{key}_probe_shots"] = shots
        commands.append(entry)
    if probe is not None:
        probe.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"commands": commands, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        calls = tracer.calls()
        never = [name for name in spec["expect_called"] if calls[name] == 0]
        if never and all(c["rc"] == 0 for c in commands):
            raise tracing.TraceError(f"wrapped functions never called: {never}")
        result["trace"] = {
            "self_s": tracing.self_times(tracer.spans),
            "calls": dict(calls),
            "counts": dict(tracer.counts),
            "step_s": tracing.step_seconds(tracer.spans) if calls["training.train"] else [],
        }
    return result


def main(argv) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    try:
        result = run(spec)
    except tracing.TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
