"""Measurement helpers shared by the workloads: seeded streams, the
percentile rule, the host-speed probe, failure classification,
child-process timing and run metadata.  Standard library only."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import selectors
import signal
import subprocess
import sys
import time

# -- seeded streams ------------------------------------------------------------


GOLDEN = (5**0.5 - 1) / 2


def strata(items, count, rng):
    """Cut `items` (sorted by cost) into `count` equal slices, each in a
    seeded low-discrepancy order: position j is visited at the rank of
    (j * golden ratio + a random offset) mod 1, so any prefix of a slice
    spreads over its whole cost range.  Drawing one item from every slice
    per round gives every seed nearly the same mix of costs."""
    size = len(items)
    slices = []
    for i in range(count):
        part = list(items[size * i // count : size * (i + 1) // count])
        offset = rng.random()
        order = sorted(range(len(part)), key=lambda j: (j * GOLDEN + offset) % 1)
        slices.append([part[j] for j in order])
    return slices


def kind_blocks(pattern, rng):
    """Endless blocks of query kinds: each block is `pattern` (a list of
    kinds whose repeats give their shares) in a fresh seeded order."""
    while True:
        block = list(pattern)
        rng.shuffle(block)
        yield block


# -- statistics ----------------------------------------------------------------


def percentile(samples, fraction):
    """Nearest-rank percentile: the smallest sample with at least
    `fraction` of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, fraction):
    """How many of `count` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count))


def tail_supported(count, fraction, minimum=10):
    """The percentile rule: report a percentile only when at least
    `minimum` samples lie beyond it."""
    return count > 0 and samples_beyond(count, fraction) >= minimum


def median(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


# -- host speed ----------------------------------------------------------------

PROBE_LOOPS = 5000
# The probe's time at the reference speed.  Timings are reported as
# measured time x REFERENCE_PROBE_NS / probe time, i.e. in nanoseconds of
# a host on which the probe takes exactly 1 ms.
REFERENCE_PROBE_NS = 1_000_000


def probe_ns(repeats=3):
    """The host's speed right now: the fastest of `repeats` runs of a fixed
    pure-Python loop of dict and integer work (about 1 ms), the kind of
    work the package does.  On a shared virtual machine a CPU can run at
    half speed for spells of seconds to minutes; the probe slows with it."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        table = {}
        for i in range(PROBE_LOOPS):
            key = i % 500
            table[key] = table.get(key, 0) + i * i
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def speed_factor(probe_before, probe_after):
    """Factor that turns a time measured between two probes into time at
    the reference speed."""
    return 2 * REFERENCE_PROBE_NS / (probe_before + probe_after)


# -- failure classification ----------------------------------------------------

OK = "ok"
FAILED = "failed"


def classify_exit(code, timed_out=False):
    """Outcome of one CLI process.  Exit 0 is an answer and exit 2 a
    deliberate rejection; both count as completed.  Exit 3 (internal
    error), any other code, death by signal and a timeout are failures."""
    if timed_out or code not in (0, 2):
        return FAILED
    return OK


def failure_kind(error):
    """Kind of failure of one in-process call that raised.  Every
    exception is a failure, because the in-process workloads send only
    valid inputs; MemoryError and RecursionError are named apart from
    other unexpected exceptions."""
    if isinstance(error, (MemoryError, RecursionError)):
        return type(error).__name__
    return "exception:" + type(error).__name__


# -- child processes -----------------------------------------------------------


class ChildResult:
    __slots__ = ("code", "stdout", "stderr", "start_ns", "wall_s", "maxrss_kb", "timed_out")

    def __init__(self, code, stdout, stderr, start_ns, wall_s, maxrss_kb, timed_out):
        self.code = code
        self.start_ns = start_ns
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.timed_out = timed_out


def run_child(argv, timeout, env=None, cwd=None):
    """Run one process to completion and time it from spawn to exit.

    Both pipes are drained with a selector and the child is reaped with
    `os.wait4`, which also gives its own peak RSS.  On timeout the child
    is killed and reaped before returning."""
    start_ns = time.perf_counter_ns()
    start = start_ns / 1e9
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=cwd,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        deadline = start + timeout
        while selector.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in selector.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(
        proc.returncode,
        b"".join(chunks[proc.stdout]).decode(),
        b"".join(chunks[proc.stderr]).decode(errors="replace"),
        start_ns, wall, usage.ru_maxrss, timed_out,
    )


def stop(proc):
    """Kill a child started with Popen and wait until it has ended."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait()
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


# -- metadata ------------------------------------------------------------------


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def source_digest(package_dir):
    """Content hash of the package sources, which identifies the measured
    code even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(root, workload, seed, seconds, trace):
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "src_digest": source_digest(os.path.join(root, "src", "seifertlinks")),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
