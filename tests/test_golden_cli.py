"""Byte-exact CLI output on a fixed corpus of commands.

`golden/cases.json` maps each output file in `golden/` to the argument
vector whose standard output it holds: every table as text and JSON,
`classify` and `cover` reports for each kind of answer and evidence, and
weighted covers with both outcomes.  Any change to a byte of the output
shows here; re-capture a file only when an output change is intended.
The `demo-<name>.out` files hold the standard output of each script in
`demos/`, run in process.

Three wider checks read files kept elsewhere in the repository: every
argument vector recorded in the benchmark's CLI references is replayed
for its exit code and output digest, every README transcript of a
`$ seifertlinks` command must print what it shows (and a block of bare
commands must exit 0), and the README's library example must print what
its comments say.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import re
import runpy
import shlex
from pathlib import Path

from seifertlinks.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# {json.dumps(argv): [exit code, sha256(stdout)[:16]]}, read only.
CLI_REFS = ROOT / "perfbench" / "refs" / "cli.json.gz"


def test_cli_output_matches_golden_corpus(capsys):
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    mismatched = []
    for name, argv in cases.items():
        code = main(argv)
        out = capsys.readouterr().out
        if code != 0 or out.encode("utf-8") != (GOLDEN / name).read_bytes():
            mismatched.append(name)
    assert len(cases) >= 40
    assert not mismatched, mismatched


def test_demo_output_matches_golden(capsys):
    assert len(DEMOS) == 3
    mismatched = []
    for demo in DEMOS:
        runpy.run_path(str(demo), run_name="__main__")
        out = capsys.readouterr().out
        if out.encode("utf-8") != (GOLDEN / f"demo-{demo.stem}.out").read_bytes():
            mismatched.append(demo.name)
    assert not mismatched, mismatched


def test_cli_replays_every_recorded_benchmark_answer():
    with gzip.open(CLI_REFS, "rt", encoding="utf-8") as handle:
        refs = json.load(handle)
    mismatched = []
    for key, want in refs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(json.loads(key))
            except SystemExit as stop:  # argparse exits on a usage error
                code = stop.code
        got = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]]
        if got != want:
            mismatched.append(key)
    assert len(refs) >= 4000
    assert not mismatched, mismatched[:10]


def test_readme_cli_transcripts_match(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(\$ seifertlinks .*?)^```$", readme, re.M | re.S)
    mismatched, transcripts = [], 0
    for block in blocks:
        commands = [line for line in block.splitlines() if line.startswith("$ ")]
        shown = "".join(
            line + "\n" for line in block.splitlines() if not line.startswith("$ ")
        )
        for command in commands:
            code = main(shlex.split(command)[2:])
            out = capsys.readouterr().out
            if code != 0 or (shown and (len(commands) != 1 or out != shown)):
                mismatched.append(command)
        transcripts += bool(shown)
    assert len(blocks) == 4 and transcripts == 3
    assert not mismatched, mismatched


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Library\n", 1)[1]
    example = example.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.rpartition("# ")[2]
        for line in example.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    assert len(expected) == 3
    assert out.getvalue().splitlines() == expected
