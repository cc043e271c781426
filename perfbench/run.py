"""Layered benchmark of seifertlinks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli_oneshot, grid_sweep, large_params, or `all` (each
workload in its own process, one after the other).  One client sends one
query at a time (closed loop).  Run from any directory; the package is
imported from the checkout's `src`.

With `--trace 0` the run reports the end-to-end metrics.  With
`--trace 1` it spends the first half of the time untraced and the second
half with spans around the package's public functions, and reports the
per-layer metrics and the tracing overhead.  End-to-end times are scaled
to a reference host speed measured by a probe around every batch
(`harness.probe_ns`).  Every answer is compared with
the references in `refs/`; the last line of stdout is one JSON object
(`correct`, `attempted`, `failed`, `metrics`) and any mismatch makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import selectors
import subprocess
import sys
import time
from collections import Counter
from random import Random

import spans
import workloads as W
from harness import (
    FAILED, OK, classify_exit, digest, failure_kind, median, metadata,
    percentile, probe_ns, run_child, speed_factor, stop, tail_supported,
)

SETUP_PROBES = 3          # fresh set-up processes before and again after the timed phase
IMPORT_PROBES = 3         # importtime probes for the in-process workloads
CLI_TIMEOUT_S = 60        # a CLI query slower than this counts as failed
DEADLINE_S = 0.25         # per-query deadline of the pathological inputs (each runs for seconds)
ADDRESS_CAP = 512 << 20   # address-space cap of the deadline worker
ORACLE_SAMPLE = 6         # oracle cases cross-checked per run
PROBE_EVERY_S = 0.25      # host-speed probes between batches at least this often
MISMATCHES_SHOWN = 10
CLI_CHILD = os.path.join(W.HERE, "cli_child.py")
DEADLINE_CHILD = os.path.join(W.HERE, "deadline_child.py")


class Stats:
    """Outcome counts and latencies of one phase of a run."""

    def __init__(self):
        self.latencies_ns = []  # completed queries, as measured
        self.normalized_ns = []  # the same at the reference host speed
        self.busy_ns = 0        # every attempted query, as measured
        self.failed_ns = 0      # failed queries, as measured
        self.attempted = 0
        self.kinds = Counter()
        self.kind_ns = Counter()
        self.failures = Counter()
        self.mismatches = 0
        self.mismatch_text = []
        self.unverified = 0

    @property
    def failed(self):
        return sum(self.failures.values())

    def ok(self, ns, kind):
        self.count(ns, kind)
        self.latencies_ns.append(ns)

    def count(self, ns, kind):
        self.attempted += 1
        self.busy_ns += ns
        self.kinds[kind] += 1
        self.kind_ns[kind] += ns

    def fail(self, ns, why, kind, query, has_reference):
        """A failed query.  Failing where a reference answer exists is also
        a correctness error; without one it is a known defect."""
        self.count(ns, kind)
        self.failed_ns += ns
        self.failures[why] += 1
        if has_reference:
            self.mismatch(f"{query}: failed ({why}) where a reference answer exists")

    def normalize(self, factor):
        """Scale the completed latencies recorded since the last call."""
        done = len(self.normalized_ns)
        self.normalized_ns += [ns * factor for ns in self.latencies_ns[done:]]

    def normalized_busy_ns(self):
        """Time of all attempted queries; a failure's time (often a
        deadline) is taken as measured."""
        return sum(self.normalized_ns) + self.failed_ns

    def check(self, got, want, query):
        if want is None:
            self.unverified += 1
        elif got != want:
            self.mismatch(f"{query}: got {got!r}, reference {want!r}")

    def mismatch(self, text):
        self.mismatches += 1
        if len(self.mismatch_text) < MISMATCHES_SHOWN:
            self.mismatch_text.append(text)


# -- workloads ------------------------------------------------------------------------


class GridSweep:
    """Acceptance-suite traffic over the canonical grid, in process: one
    query runs every call the suite makes on one link."""

    def __init__(self, api, seed, full):
        self.api = api
        self.grid = W.canonical_grid(api)
        self.keys = [api.render(link) for link in self.grid]
        self.refs = W.load_refs("grid")
        queries = W.grid_queries(api, self.grid)
        self.pool_size = sum(len(calls) for _, calls in queries)
        self.stream = W.grid_stream(queries, Random(seed))
        self.in_process = True

    def execute(self, query, stats):
        index, calls = query
        link = self.grid[index]
        results = []
        start = time.perf_counter_ns()
        try:
            for op, n in calls:
                results.append(W.call(self.api, op, link, n))
        except Exception as error:  # recorded as a failed query
            stats.fail(time.perf_counter_ns() - start, failure_kind(error), "link", (self.keys[index], op, n), True)
            return
        stats.ok(time.perf_counter_ns() - start, "link")
        for (op, n), result in zip(calls, results):
            stats.check(W.value_of(op, result), W.grid_ref(self.refs, self.keys[index], op, n), (self.keys[index], op, n))

    def close(self):
        pass


class LargeParams:
    """Distinct large-parameter queries in process, plus the pathological
    inputs in a capped child under a deadline."""

    def __init__(self, api, seed, full):
        self.api = api
        self.refs = W.load_refs("large")
        self.pool_size = len(W.large_pool()) + len(W.star_pool()) + len(W.PATHOLOGICAL)
        self.stream = W.large_stream(Random(seed))
        self.worker = DeadlineWorker() if full else None
        self.in_process = True

    def execute(self, query, stats):
        op, notation, n = query[-3:]
        if query[0] == "deadline":
            status, value, ns = self.worker.ask([op, notation, n], DEADLINE_S)
            if status != OK:
                stats.fail(ns, status, "deadline", query, False)
                return
            stats.ok(ns, "deadline")
            stats.check(W.expected_pathological(op, notation, n)(value), True, query)
            return
        link = W.large_link(self.api, notation)
        start = time.perf_counter_ns()
        try:
            result = W.call(self.api, op, link, n, W.LARGE_TABLE)
        except Exception as error:  # recorded as a failed query
            stats.fail(time.perf_counter_ns() - start, failure_kind(error), op, query, True)
            return
        stats.ok(time.perf_counter_ns() - start, op)
        if op == "star":
            want = self.refs["star"].get(f"{notation}|{n}")
        else:
            want = self.refs["links"].get(notation, {}).get(op)
        stats.check(W.value_of(op, result, W.LARGE_TABLE), want, query)

    def close(self):
        if self.worker is not None:
            self.worker.close()


class CliOneshot:
    """One fresh `python -m seifertlinks` process per query."""

    def __init__(self, api, seed, full):
        grid = W.canonical_grid(api)
        pool = W.cli_pool(api, grid)
        self.refs = W.load_refs("cli")
        self.pool_size = sum(len(items) for items in pool.values())
        self.stream = W.cli_stream(pool, Random(seed))
        self.env = dict(os.environ, PYTHONPATH=W.SRC)
        self.in_process = False
        self.traced = False
        self.peak_rss_kb = 0
        self.reports = []  # (spawn time, child trace report, importtime) when traced

    def execute(self, query, stats):
        kind, argv = query
        if self.traced:
            command = [sys.executable, "-X", "importtime", CLI_CHILD] + argv
        else:
            command = [sys.executable, "-m", "seifertlinks"] + argv
        result = run_child(command, CLI_TIMEOUT_S, env=self.env, cwd=W.ROOT)
        ns = int(result.wall_s * 1e9)
        self.peak_rss_kb = max(self.peak_rss_kb, result.maxrss_kb)
        if self.traced:
            self.reports.append(child_report(result))
        want = self.refs.get(W.cli_key(argv))
        if classify_exit(result.code, result.timed_out) == FAILED:
            why = "timeout" if result.timed_out else f"exit {result.code}"
            stats.fail(ns, why, kind, argv, want is not None)
            return
        stats.ok(ns, kind)
        if want is None and kind in ("rejected", "malformed_weights"):
            stats.check(result.code, 2, argv)
        else:
            stats.check([result.code, digest(result.stdout)], want, argv)

    def close(self):
        pass


WORKLOAD_CLASSES = {
    "cli_oneshot": CliOneshot,
    "grid_sweep": GridSweep,
    "large_params": LargeParams,
}


class DeadlineWorker:
    """A `deadline_child.py` process that is killed and replaced whenever a
    query misses its deadline."""

    READY_TIMEOUT_S = 60

    def __init__(self):
        self.proc = None
        self.ready = False
        self.pending = b""
        self.spawn()

    def spawn(self):
        self.proc = subprocess.Popen(
            [sys.executable, DEADLINE_CHILD, str(ADDRESS_CAP)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=W.ROOT,
        )
        self.ready = False
        self.pending = b""

    def _line(self, timeout):
        """Next stdout line, b"" at end of file, None after `timeout`."""
        deadline = time.perf_counter() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in self.pending:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    return None
                data = os.read(self.proc.stdout.fileno(), 65536)
                if not data:
                    return b""
                self.pending += data
        line, self.pending = self.pending.split(b"\n", 1)
        return line

    def restart(self):
        stop(self.proc)
        self.spawn()

    def ask(self, query, deadline):
        """(status, value, ns): status is OK or the failure kind."""
        if not self.ready:
            if self._line(self.READY_TIMEOUT_S) != b"ready":
                self.restart()
                return "worker did not start", None, 0
            self.ready = True
        start = time.perf_counter_ns()
        self.proc.stdin.write((json.dumps(query) + "\n").encode())
        self.proc.stdin.flush()
        line = self._line(deadline)
        ns = time.perf_counter_ns() - start
        if not line:
            self.restart()
            return ("timeout" if line is None else "worker died"), None, ns
        answer = json.loads(line)
        if "error" in answer:
            return answer["error"], None, ns
        return OK, answer["value"], ns

    def close(self):
        stop(self.proc)


# -- traced CLI children ---------------------------------------------------------------


def child_report(result):
    """(spawn ns, trace report, importtime) of one traced CLI child."""
    report = None
    for line in result.stderr.splitlines():
        if line.startswith("perfbench-trace "):
            report = json.loads(line[len("perfbench-trace "):])
    return result.start_ns, report, spans.parse_importtime(result.stderr)


def import_metrics(reports):
    """Medians over traced children of interpreter start (spawn to the
    child's first line), package import wall time, and importtime self
    times per package module and for the standard-library modules the
    package import pulled in."""
    per_child = []
    for spawn_ns, report, importtime in reports:
        if report is None:
            continue
        row = {
            "interp.start_ms": (report["start_ns"] - spawn_ns) / 1e6,
            "import.total_ms": report["import_ns"] / 1e6,
        }
        for module in spans.IMPORT_MODULES:
            full = "seifertlinks" if module == "seifertlinks" else f"seifertlinks.{module}"
            row[f"import.{module}.self_ms"] = importtime.get(full, 0) / 1e3
        row["import.stdlib.self_ms"] = sum(
            importtime.get(name, 0) for name in report["pulled"]
            if name != "seifertlinks" and not name.startswith("seifertlinks.")
        ) / 1e3
        per_child.append(row)
    names = ["interp.start_ms", "import.total_ms"]
    names += [f"import.{m}.self_ms" for m in spans.IMPORT_MODULES] + ["import.stdlib.self_ms"]
    return {name: (median([row[name] for row in per_child]), "ms") for name in names}


def import_probes(env):
    reports = []
    for _ in range(IMPORT_PROBES):
        result = run_child(
            [sys.executable, "-X", "importtime", CLI_CHILD, "--import-only"],
            CLI_TIMEOUT_S, env=env, cwd=W.ROOT,
        )
        reports.append(child_report(result))
    return reports


# -- phases and metrics --------------------------------------------------------------------


def run_phase(workload, seconds, tracer=None):
    """Send queries one at a time until `seconds` have passed (finishing
    the batch in progress, so every run holds whole batches with the same
    mix) or the workload's stream ends."""
    stats = Stats()
    if tracer is not None and workload.in_process:
        tracer.patch(spans.package_modules(sys.modules))
    workload.traced = tracer is not None
    try:
        end = time.perf_counter() + seconds
        probe = probe_ns()
        probed = time.perf_counter()
        for batch in workload.stream:
            for query in batch:
                workload.execute(query, stats)
            now = time.perf_counter()
            if now - probed >= PROBE_EVERY_S or now >= end:
                after = probe_ns()
                stats.normalize(speed_factor(probe, after))
                probe, probed = after, time.perf_counter()
            if now >= end:
                break
        stats.normalize(speed_factor(probe, probe_ns()))
    finally:
        if tracer is not None:
            tracer.unpatch()
    return stats


def end_to_end(stats, workload, setup_s):
    lat = stats.normalized_ns
    if not lat:
        raise RuntimeError("no query completed")
    if not tail_supported(len(lat), 0.9):
        print(f"warning: {len(lat)} samples leave fewer than 10 beyond p90", file=sys.stderr)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = workload.peak_rss_kb
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (median(lat) / 1e6, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) / 1e6, "ms"),
        "throughput_qps": (len(lat) / (stats.normalized_busy_ns() / 1e9), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(untraced, traced, summary, imports):
    metrics = dict(imports)
    for layer in spans.LAYERS:
        calls, self_ns, durations = summary.get(layer, (0, 0, []))
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.busy_ms"] = (self_ns / 1e6, "ms")
        metrics[f"{layer}.p50_us"] = (median(durations) / 1e3, "us")
    for command in spans.CLI_COMMANDS:
        durations = summary.get(f"cli.main.{command}", (0, 0, []))[2]
        metrics[f"cli.main.{command}.p50_us"] = (median(durations) / 1e3, "us")
    for table in spans.TABLES:
        self_ns = summary.get(f"tables.build_table.{table}", (0, 0, []))[1]
        metrics[f"tables.build_table.{table}.busy_ms"] = (self_ns / 1e6, "ms")
    mean = lambda s: sum(s.normalized_ns) / max(len(s.normalized_ns), 1)
    metrics["trace.overhead_ratio"] = (mean(traced) / mean(untraced) - 1, "ratio")
    attempted = untraced.attempted + traced.attempted
    metrics["failed_ratio"] = ((untraced.failed + traced.failed) / max(attempted, 1), "ratio")
    return metrics


def setup_times(args):
    """Wall times of fresh processes from spawn until the workload is ready
    for its first timed query (interpreter, package import, inputs and
    references)."""
    times = []
    for _ in range(SETUP_PROBES):
        before = probe_ns()
        result = run_child(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            CLI_TIMEOUT_S, cwd=W.ROOT,
        )
        if result.code != 0 or result.stdout.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {result.stderr.strip()}")
        times.append(result.wall_s * speed_factor(before, probe_ns()))
    return times


def oracle_check(api, seed, stats):
    oracles = W.load_oracles()
    for case in Random(seed).sample(W.oracle_cases(), ORACLE_SAMPLE):
        for text in W.check_oracle(api, oracles, case):
            stats.mismatch(text)


# -- entry points ------------------------------------------------------------------------


def run_one(args):
    try:
        api = W.load_package()
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cls = WORKLOAD_CLASSES[args.workload]
    if args.setup_only:
        cls(api, args.seed, full=False)
        print("ready", flush=True)
        os._exit(0)  # skip interpreter teardown, which is not set-up time
    # Half the set-up probes run before and half after the timed phase, so
    # a slow spell of the machine does not decide the median alone.
    # One CPU for the whole run, inherited by every child, so the host-speed
    # probes measure the CPU the queries run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup = [] if args.trace else setup_times(args)
    workload = cls(api, args.seed, full=True)
    # The benchmark's own inputs and references would otherwise be scanned
    # by every full collection the package's allocations trigger.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            untraced = run_phase(workload, args.seconds / 2)
            tracer = spans.Tracer()
            traced = run_phase(workload, args.seconds / 2, tracer)
            if workload.in_process:
                summary = tracer.summary()
                imports = import_metrics(import_probes(dict(os.environ, PYTHONPATH=W.SRC)))
            else:
                summary = spans.merge_summaries(r[1]["spans"] for r in workload.reports if r[1])
                imports = import_metrics(workload.reports)
            phases = [untraced, traced]
            metrics = per_layer(untraced, traced, summary, imports)
        else:
            stats = run_phase(workload, args.seconds)
            phases = [stats]
            setup += setup_times(args)
            metrics = end_to_end(stats, workload, median(setup))
    finally:
        workload.close()
    checks = Stats()
    oracle_check(api, args.seed, checks)
    phases.append(checks)

    attempted = sum(s.attempted for s in phases)
    failed = sum(s.failed for s in phases)
    mismatches = sum(s.mismatches for s in phases)
    meta = metadata(W.ROOT, args.workload, args.seed, args.seconds, args.trace)
    meta.update(
        pool_size=workload.pool_size,
        queries=attempted,
        queries_by_kind=dict(sum((s.kinds for s in phases), Counter())),
        busy_ms_by_kind={k: v / 1e6 for k, v in sum((s.kind_ns for s in phases), Counter()).items()},
        failures=dict(sum((s.failures for s in phases), Counter())),
        completed_samples=sum(len(s.latencies_ns) for s in phases),
        unverified=sum(s.unverified for s in phases),
        mismatches=mismatches,
        oracle_cases=ORACLE_SAMPLE,
        as_measured={
            "latency_p50_ms": median(phases[0].latencies_ns) / 1e6,
            "throughput_qps": len(phases[0].latencies_ns) / (phases[0].busy_ns / 1e9),
        },
    )
    for s in phases:
        for text in s.mismatch_text:
            print(f"MISMATCH {text}", file=sys.stderr)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    result = {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"meta": meta, **result}, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if mismatches == 0 else 1


def run_all(args):
    """Every workload in its own process, with a summary at the end."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in W.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        out = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out.stdout)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            status = 1
            totals["correct"] = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = entry
    print("# summary")
    for metric, entry in totals["metrics"].items():
        print(f"{metric:<60} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(totals))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result with its metadata to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
