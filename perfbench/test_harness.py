"""Tests of the benchmark's own helpers: `python3 -m pytest perfbench`."""

from __future__ import annotations

import importlib.util
import os
import sys
from itertools import islice
from random import Random

import pytest

import harness
import run
import spans
import workloads as W

API = W.load_package()


# -- seeded generators ------------------------------------------------------------


def test_grid_matches_the_acceptance_fixture():
    grid = W.canonical_grid(API)
    assert len(grid) == 1636
    assert sum(API.is_prime(link) for link in grid) == 1628
    path = os.path.join(W.ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("perfbench_conftest", path)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert grid == conftest.canonical_grid()


def test_streams_are_deterministic_per_seed():
    grid = W.canonical_grid(API)
    queries = W.grid_queries(API, grid)
    pool = W.cli_pool(API, grid)
    for make in (
        lambda seed: W.grid_stream(queries, Random(seed)),
        lambda seed: W.cli_stream(pool, Random(seed)),
        lambda seed: W.large_stream(Random(seed)),
    ):
        first = list(islice(make(7), 60))
        assert first == list(islice(make(7), 60))
        assert first != list(islice(make(8), 60))


def test_cli_pool_does_not_depend_on_the_run_seed():
    grid = W.canonical_grid(API)
    assert W.cli_pool(API, grid) == W.cli_pool(API, grid)


def test_strata_keep_cost_slices_and_spread_each_prefix():
    items = list(range(40))
    slices = harness.strata(items, 4, Random(3))
    assert [sorted(part) for part in slices] == [items[i:i + 10] for i in range(0, 40, 10)]
    assert slices == harness.strata(items, 4, Random(3))
    for part in slices:
        # The first half of every slice reaches both ends of its range.
        low = min(part)
        assert {x - low < 5 for x in part[:5]} == {True, False}


def test_kind_blocks_keep_shares_in_every_block():
    pattern = ["a"] * 3 + ["b"] * 2
    for block in islice(harness.kind_blocks(pattern, Random(1)), 10):
        assert sorted(block) == sorted(pattern)


def test_large_params_batches_never_repeat_an_input():
    batches = list(W.large_stream(Random(5)))
    ordinary = [q for batch in batches for q in batch if q[0] != "deadline"]
    assert len({(q[1], q[2]) for q in ordinary}) == len(ordinary)
    # Every batch starts with the next pathological input and takes the
    # same share of every cost stratum and one star n, so the failed
    # share of a run of whole batches does not depend on its length.
    assert [batch[0][1:] for batch in batches] == [
        W.PATHOLOGICAL[i % len(W.PATHOLOGICAL)] for i in range(len(batches))
    ]
    assert all(q[0] != "deadline" for batch in batches for q in batch[1:])
    assert [sum(q[0] == "star" for q in batch) for batch in batches] == [1] * len(batches)
    assert {len(batch) for batch in batches} == {W.ROUNDS_PER_BATCH * W.CLASSIFY_STRATA + 2}
    assert len(batches) == min(len(W.STAR_NS), len(W.large_pool()) // W.CLASSIFY_STRATA // W.ROUNDS_PER_BATCH)


# -- percentile rule ---------------------------------------------------------------


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 0.9) == 90
    assert harness.percentile(samples, 0.5) == 50
    assert harness.percentile([5], 0.9) == 5
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_tail_needs_ten_samples_beyond():
    assert harness.samples_beyond(100, 0.9) == 10
    assert harness.tail_supported(100, 0.9)
    assert not harness.tail_supported(99, 0.9)
    assert harness.tail_supported(20, 0.5)
    assert not harness.tail_supported(19, 0.5)
    assert not harness.tail_supported(0, 0.9)


# -- spans -------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans_ = [
        ["outer", 0, 100, -1],
        ["inner", 10, 40, 0],
        ["inner", 50, 70, 0],
        ["leaf", 55, 60, 2],
    ]
    summary = spans.summarize_spans(spans_)
    assert summary["outer"] == [1, 100 - 30 - 20, [100]]
    assert summary["inner"] == [2, 30 + (20 - 5), [30, 20]]
    assert summary["leaf"] == [1, 5, [5]]


def test_wrapped_calls_nest():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    assert tracer.wrap("outer", lambda x: leaf(x) * 2)(1) == 4
    names = [(name, parent) for name, _s, _e, parent in tracer.spans]
    assert names == [("outer", -1), ("leaf", 0)]
    assert all(end >= start for _n, start, end, _p in tracer.spans)


def test_patch_wraps_every_binding_and_restores_them():
    modules = spans.package_modules(sys.modules)
    original = API.delta
    tracer = spans.Tracer()
    tracer.patch(modules)
    try:
        assert API.delta is not original
        assert modules["alexander"].delta is API.delta
        API.genus(API.ZeroCore(2, 3, 1, 1))
        API.b_bar(API.ZeroCore(2, 3, 1, 1), 5).chi
    finally:
        tracer.unpatch()
    assert API.delta is original
    assert isinstance(vars(API.ConeOrbifold)["chi"], property)
    summary = tracer.summary()
    assert summary["alexander.genus"][0] == 1
    assert summary["alexander.delta"][0] >= 1  # called from inside genus
    assert summary["orbifold.chi"][0] == 1
    genus_self = summary["alexander.genus"][1]
    assert 0 <= genus_self <= summary["alexander.genus"][2][0]


def test_merge_summaries_adds_calls_and_durations():
    merged = spans.merge_summaries([{"a": [1, 5, [5]]}, {"a": [2, 7, [3, 4]], "b": [1, 1, [1]]}])
    assert merged == {"a": [3, 12, [5, 3, 4]], "b": [1, 1, [1]]}


def test_importtime_lines_are_parsed():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   seifertlinks.errors\n"
        "import time:      1500 |       2000 | seifertlinks\n"
        "error: something else\n"
    )
    assert spans.parse_importtime(text) == {"seifertlinks.errors": 120, "seifertlinks": 1500}


# -- failure classification ------------------------------------------------------------


def test_exit_codes_zero_and_two_complete_everything_else_fails():
    assert harness.classify_exit(0) == harness.OK
    assert harness.classify_exit(2) == harness.OK
    for code in (1, 3, -9, 120):
        assert harness.classify_exit(code) == harness.FAILED
    assert harness.classify_exit(0, timed_out=True) == harness.FAILED


def test_exceptions_are_failures_with_a_kind():
    assert harness.failure_kind(MemoryError()) == "MemoryError"
    assert harness.failure_kind(ValueError("x")) == "exception:ValueError"


def test_failure_with_a_reference_is_also_a_mismatch():
    stats = run.Stats()
    stats.fail(10, "exit 3", "cover", ["cover"], has_reference=False)
    assert (stats.failed, stats.mismatches) == (1, 0)
    stats.fail(10, "exit 3", "cover", ["cover"], has_reference=True)
    assert (stats.failed, stats.mismatches) == (2, 1)
    stats.check(1, None, "q")
    stats.check(1, 2, "q")
    assert (stats.unverified, stats.mismatches) == (1, 2)
    assert stats.attempted == 2 and stats.latencies_ns == []


def test_run_child_reports_exit_code_output_and_timeout():
    done = harness.run_child([sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"], 30)
    assert (done.code, done.stdout, done.timed_out) == (3, "hi\n", False)
    assert done.maxrss_kb > 0
    slow = harness.run_child([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
    assert slow.timed_out and harness.classify_exit(slow.code, slow.timed_out) == harness.FAILED


def test_pathological_expectations_follow_closed_forms():
    check = W.expected_pathological("genus", "L(101,103;3,3)", 0)
    assert check(46507) and not check(46508)
    assert W.expected_pathological("determinant", "L(99999999999,2;1,1)", 0)(99999999999)
    assert W.expected_pathological("star", "T(2,5)", 55440)("Star/PSL2R_Rep")
    # The closed forms agree with the package where it answers quickly.
    link = API.ZeroCore(11, 13, 3, 3)
    assert API.genus(link) == (W.large_breadth(11, 13, 3) - 3 + 1) // 2
    assert API.determinant(API.ZeroCore(99, 2, 1, 1)) == 99


def test_latencies_are_scaled_to_the_reference_speed():
    assert harness.speed_factor(2_000_000, 2_000_000) == 0.5
    assert harness.probe_ns(repeats=1) > 0
    stats = run.Stats()
    stats.ok(100, "q")
    stats.normalize(0.5)
    stats.ok(100, "q")
    stats.fail(40, "timeout", "q", "x", has_reference=False)
    stats.normalize(2.0)
    assert stats.normalized_ns == [50, 200]
    assert stats.normalized_busy_ns() == 290
