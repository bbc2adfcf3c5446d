"""Golden CLI digests: every datum subcommand on every built-in label, the
weight and cone reports of the raw pairs in ``datums/``, ``mhs-check``
on the explicit Hodge filtrations in ``datums/explicit-f/``, and the dbar
subcommands on fixed exponents and the configs in ``dbar_configs/``.

``tests/golden_cli.json`` maps each argv (joined by spaces, config paths
relative to ``tests/``) to its exit code and the sha256 of its stdout.  The
test replays the cases in-process; a mismatch means a report or an exit
code changed.  Running this module as a script rewrites the file from the
current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from limithodge.cli import main
from limithodge.datum import standard_corpus

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_cli.json"
CONFIGS = HERE / "dbar_configs"
DATUMS = HERE / "datums"
# the 2-dimensional Jordan block at weight 1 with an explicit F, each with and
# without S: a valid F, a skewed one (r_split false), one that does not
# exhaust the space and one whose F^1 is the real line W_0 (both exit 3)
EXPLICIT_F = DATUMS / "explicit-f"

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
# about 8 s on a 2-core host, so it is left out
SLOW = {"end-check End(s11)"}

# the gaussian-* datum files are dense Gaussian conjugates, so these pin printed
# bases with Q(i) entries, which no split corpus label has; cone-dependent-j3
# (N1 = J3, N2 = -J3 + J3^2) commutes but is no orbit, and its cone-check at the
# default 10 samples stops at the first sample with independent false
DATUM_SHAPES = (
    ["weight-filtration"],
    ["weight-filtration", "--operator", "n1"],
    ["cone-check", "--samples", "2"],
    ["cone-check"],
)

REGION_EXPONENTS = (("-2", "-1"), ("0.5", "2"), ("1", "-0.5"))


def cases() -> dict[str, list[str]]:
    """Each golden key with the argv it stands for."""
    out = {}
    for datum in standard_corpus():
        for cmd, *flags in SHAPES:
            argv = [cmd, datum.label, *flags]
            if " ".join(argv) not in SLOW:
                out[" ".join(argv)] = argv
    for datum in sorted(DATUMS.glob("*.json")):
        for cmd, *flags in DATUM_SHAPES:
            out[" ".join([cmd, f"{DATUMS.name}/{datum.name}", *flags])] = [cmd, str(datum), *flags]
    for datum in sorted(EXPLICIT_F.glob("*.json")):
        out[f"mhs-check {DATUMS.name}/{EXPLICIT_F.name}/{datum.name}"] = ["mhs-check", str(datum)]
    for p in range(3):
        for q in range(3):
            for k, l in REGION_EXPONENTS:
                argv = ["dbar-region", "--p", str(p), "--q", str(q), "--k", k, "--l", l]
                out[" ".join(argv)] = argv
    argv = ["dbar-region", "--p", "0", "--q", "1", "--k", "nan"]
    out[" ".join(argv)] = argv
    for config in sorted(CONFIGS.glob("*.json")):
        out[f"dbar-solve {CONFIGS.name}/{config.name}"] = ["dbar-solve", str(config)]
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
    assert sorted(golden) == sorted(cases())
    mismatches = []
    for key, argv in cases().items():
        got, out = replay(argv)
        if got != golden[key]:
            mismatches.append(f"{key}: exit {got['exit']}, stdout:\n{out}")
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key: replay(argv)[0] for key, argv in cases().items()},
                                 indent=1) + "\n")
