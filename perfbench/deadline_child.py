"""Worker for the queries that run under a deadline.

`python perfbench/deadline_child.py CAP_BYTES` caps its own address space
at CAP_BYTES (so an input that tries to build a huge polynomial raises
MemoryError instead of exhausting the machine), imports the package,
prints `ready`, then answers one JSON query per stdin line:
`[op, notation, n]` -> `{"value": ...}` or `{"error": kind}`.
The parent kills it when a query misses its deadline.
"""

import json
import os
import resource
import sys


def main():
    cap = int(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    # Leave the parent's CPU to the timed queries when another is free.
    os.sched_setaffinity(0, range(os.cpu_count()))
    from harness import failure_kind
    from workloads import LARGE_TABLE, call, large_link, load_package, value_of

    api = load_package()
    print("ready", flush=True)
    for line in sys.stdin:
        op, notation, n = json.loads(line)
        try:
            result = call(api, op, large_link(api, notation), n, LARGE_TABLE)
            answer = {"value": value_of(op, result, LARGE_TABLE)}
        except Exception as error:  # reported to the parent as a failure
            answer = {"error": failure_kind(error)}
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
