"""Byte-exact CLI output on a fixed corpus of commands.

`golden/cases.json` maps each output file in `golden/` to the argument
vector whose standard output it holds: every table as text and JSON,
`classify` and `cover` reports for each kind of answer and evidence, and
weighted covers with both outcomes.  Any change to a byte of the output
shows here; re-capture a file only when an output change is intended.
"""

from __future__ import annotations

import json
from pathlib import Path

from seifertlinks.cli import main

GOLDEN = Path(__file__).parent / "golden"


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
