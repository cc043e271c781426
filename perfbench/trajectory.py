"""Append one point to the BENCH trajectory (`trajectory.json`).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace T --out runs/W-N.json
    python3 perfbench/trajectory.py LABEL runs/*.json

A point holds, per workload and metric, the median and quartiles of the
given runs (at least two per workload), with the code and machine they
were measured on.  Points are only ever added by re-running the harness.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def point(label, records):
    first = records[0]["meta"]
    workloads = {}
    for record in records:
        meta = record["meta"]
        entry = workloads.setdefault(meta["workload"], {"runs": 0, "seeds": [], "queries": [], "failed": [], "metrics": {}})
        entry["runs"] += 1
        entry["seeds"].append(meta["seed"])
        entry["queries"].append(record["attempted"])
        entry["failed"].append(record["failed"])
        for name, value in record["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": value["unit"], "values": []})["values"].append(value["value"])
    for entry in workloads.values():
        for metric in entry["metrics"].values():
            values = metric.pop("values")
            q1, _, q3 = statistics.quantiles(values, n=4)
            metric.update(median=statistics.median(values), q1=q1, q3=q3)
    return {
        "label": label,
        "git_commit": first["git_commit"],
        "src_digest": first["src_digest"],
        "python": first["python"],
        "cpu": first["cpu"],
        "nproc": first["nproc"],
        "seconds": first["seconds"],
        "trace": first["trace"],
        "workloads": workloads,
    }


def main(label, paths):
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    if len({r["meta"]["src_digest"] for r in records}) != 1:
        raise SystemExit("runs of different code cannot form one point")
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as handle:
            trajectory = json.load(handle)
    trajectory.append(point(label, records))
    with open(TRAJECTORY, "w") as handle:
        json.dump(trajectory, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
