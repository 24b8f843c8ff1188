"""Committed golden outputs: the byte-identity contract as a test.

Each case runs ``pivotfit pipeline`` on a fixed-byte raw input under
``tests/golden/`` and compares the sha256 of every file it writes, except
``manifest.json`` (which holds absolute paths and the numpy version),
with ``tests/golden/expected.json``. The inputs are committed bytes, not
generated at test time, so a change to the engine cannot move an input
and its expectation together.

An intended change of outputs regenerates the expectations with
``PYTHONPATH=src python tests/test_golden.py`` and shows up as a diff of
``expected.json``.
"""

import hashlib
import json
import os
import sys

import pytest

from pivotfit.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXPECTED = os.path.join(GOLDEN, "expected.json")

GA = ["--step", "2", "--scale", "40", "--population", "16", "--generations", "10"]

# case -> (raw input, extra pipeline flags)
CASES = {
    # comma-separated with a header line: the CLI fixture's shape
    "comma_header": ("comma_header.csv", ["--seed", "5"]),
    # tab-separated with CRLF line ends, a BOM and a whitespace-only line:
    # read from the stripped lines, past a header, from columns 1 and 2
    "tab_crlf_bom": (
        "tab_crlf_bom.txt",
        ["--delimiter", "\t", "--displacement-column", "1", "--load-column", "2",
         "--seed", "11"],
    ),
    # an asymmetric backbone, no header, fitted on 2 workers; written with
    # 17 significant digits, which round-trip every float, so that a
    # one-ulp change of any output value shows
    "asymmetric_workers2": (
        "asymmetric.csv", ["--seed", "3", "--workers", "2", "--precision", "17"]
    ),
}


def output_hashes(case, outdir):
    """sha256 of every file ``pivotfit pipeline`` writes for a case,
    except manifest.json."""
    raw, flags = CASES[case]
    argv = ["pipeline", "--input", os.path.join(GOLDEN, raw), "--outdir", str(outdir)]
    if main(argv + GA + flags) != 0:
        raise RuntimeError(f"pipeline failed on golden case {case!r}")
    hashes = {}
    for name in sorted(os.listdir(outdir)):
        if name != "manifest.json":
            with open(os.path.join(outdir, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.mark.parametrize("case", sorted(CASES))
def test_pipeline_outputs_match_golden_hashes(case, tmp_path):
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[case]
    assert output_hashes(case, tmp_path / "out") == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {case: output_hashes(case, os.path.join(tmp, case)) for case in sorted(CASES)}
    with open(EXPECTED, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED}", file=sys.stderr)
