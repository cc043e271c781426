"""Record the reference answers in `refs/` from the code in `src`.

    python3 perfbench/record.py [grid] [cli] [large] [large_cost]

References are recorded for every input any seed can draw, computed in
process (CLI commands through `cli.main` with captured stdout, which
prints exactly what `python -m seifertlinks` prints).  A query that fails
is never stored: the benchmark then counts it as a failure, or checks it
against a closed-form expectation once it starts to answer.  Re-record
only when a change to the package is meant to change an answer.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

import workloads as W
from harness import digest


def safe(fn):
    try:
        return fn()
    except Exception:  # a failed query gets no reference
        return None


def record_grid(api):
    grid = W.canonical_grid(api)
    by_link = {}
    for index, calls in W.grid_queries(api, grid):
        link = grid[index]
        entry = by_link.setdefault(api.render(link), {})
        for op, n in calls:
            value = safe(lambda: W.value_of(op, W.call(api, op, link, n)))
            if op in W.GRID_RANGES:
                series = entry.setdefault(op, [None] * len(W.GRID_RANGES[op]))
                series[n - W.GRID_RANGES[op].start] = value
            else:
                entry[op] = value
    return by_link


def record_cli(api):
    from seifertlinks import cli

    refs = {}
    for items in W.cli_pool(api, W.canonical_grid(api)).values():
        for argv in items:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as stop:
                    code = stop.code
            if code in (0, 2):
                refs[W.cli_key(argv)] = [code, digest(out.getvalue())]
    return refs


def record_large(api):
    links = {}
    for p, q, k in W.large_pool():
        notation = W.large_key(p, q, k)
        link = W.large_link(api, notation)
        links[notation] = {
            op: safe(lambda: W.value_of(op, W.call(api, op, link, 0, W.LARGE_TABLE), W.LARGE_TABLE))
            for op in W.LARGE_OPS
        }
    stars = {}
    for notation, n in W.star_pool():
        link = W.large_link(api, notation)
        stars[f"{notation}|{n}"] = safe(lambda: W.value_of("star", W.call(api, "star", link, n)))
    return {"links": links, "star": stars}


def record_large_cost(api):
    """Milliseconds of one call of each `large_params` link with its op,
    each on a fresh link object; `large_stream` cuts its cost strata from
    these.  Timings, not answers: re-record when the package's costs have
    changed so much that the strata no longer hold queries of similar cost."""
    costs = {}
    for entry, op in W.large_ops().items():
        notation = W.large_key(*entry)
        link = W.large_link(api, notation)
        start = time.perf_counter_ns()
        safe(lambda: W.call(api, op, link, 0, W.LARGE_TABLE))
        costs[notation] = round((time.perf_counter_ns() - start) / 1e6, 2)
    return costs


RECORDERS = {"grid": record_grid, "cli": record_cli, "large": record_large, "large_cost": record_large_cost}


def main(names):
    api = W.load_package()
    # Without names, only the answers: the cost strata stay as recorded.
    for name in names or ("grid", "cli", "large"):
        W.save_refs(name, RECORDERS[name](api))
        print(f"recorded refs/{name}.json.gz", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
