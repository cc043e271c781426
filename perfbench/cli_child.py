"""Traced stand-in for `python -m seifertlinks ARGS`, run as
`python -X importtime perfbench/cli_child.py ARGS`.

It behaves like the real entry point (same stdout, same exit code) and
adds one line to stderr, after the importtime lines: the marker below and
a JSON object with the start time, the import wall time, the modules the
package import pulled in, and the span summary.  With `--import-only` it
imports the package and reports without running a command.
"""

import sys
import time

START_NS = time.perf_counter_ns()
MARKER = "perfbench-trace "


def main():
    import os

    before = set(sys.modules)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import_start = time.perf_counter_ns()
    import seifertlinks.cli as cli

    import_ns = time.perf_counter_ns() - import_start
    pulled = sorted(set(sys.modules) - before)

    from spans import Tracer, package_modules

    argv = sys.argv[1:]
    tracer = Tracer()
    code = 0
    if argv != ["--import-only"]:
        tracer.patch(package_modules(sys.modules))
        tracer.begin("cli.main")
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse rejects with exit code 2
            code = stop.code if isinstance(stop.code, int) else 2
        finally:
            command = argv[0] if argv and argv[0] in ("classify", "cover", "table") else "rejected"
            tracer.end(f"cli.main.{'rejected' if code == 2 else command}")
        sys.stdout.flush()

    import json

    report = {
        "start_ns": START_NS,
        "import_ns": import_ns,
        "pulled": pulled,
        "spans": tracer.summary(),
    }
    sys.stderr.write(MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
