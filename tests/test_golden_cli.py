"""Golden CLI digests: every datum subcommand on every built-in label.

``tests/golden_cli.json`` maps each argv (joined by spaces) to its exit
code and the sha256 of its stdout.  The test replays the cases
in-process; a mismatch means a report changed.  Running this module as a
script rewrites the file from the current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from limithodge.cli import main
from limithodge.l2complex import standard_corpus

GOLDEN = Path(__file__).with_name("golden_cli.json")

SHAPES = (
    ["weight-filtration"],
    ["weight-filtration", "--operator", "n1"],
    ["cone-check", "--samples", "3"],
    ["decompose"],
    ["alpha-basis"],
    ["mhs-check"],
    ["norm-class"],
    ["theta-bound"],
    ["stalk-cohomology", "--truncation-degree", "2"],
    ["stalk-cohomology", "--mode", "hodge-bundle"],
    ["end-check"],
)

# end-check on End(s11) works in a 256-dimensional End(End(H)) and takes
# about 30 s, so it is left out
SLOW = {"end-check End(s11)"}


def cases() -> list[list[str]]:
    out = []
    for datum in standard_corpus():
        for cmd, *flags in SHAPES:
            argv = [cmd, datum.label, *flags]
            if " ".join(argv) not in SLOW:
                out.append(argv)
    return out


def replay(argv: list[str]) -> tuple[dict, str]:
    """The golden entry of argv, and the stdout it was taken from."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    out = buf.getvalue()
    return {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}, out


def test_cli_stdout_matches_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())
    mismatches = []
    for argv in cases():
        got, out = replay(argv)
        if got != golden[" ".join(argv)]:
            mismatches.append(f"{' '.join(argv)}: exit {got['exit']}, stdout:\n{out}")
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(a): replay(a)[0] for a in cases()}, indent=1) + "\n")
