"""One `mcd` or `bound` input per case combination, replayed against digests.

tests/data/formula_digests.json holds, for each distinct combination of
command, formula case, bound case and equality flag, and admissible case
and answer, the first argv that reaches it among the benchmark's `query`
batches at seeds 101-103, each `bound` argv there also taken with
`--bound d` for d = 1..16.  Each entry has the exit code and the sha256 of
stdout that the program printed when the file was written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from cliffcomp import cli

CASES = json.loads((Path(__file__).parent / "data" / "formula_digests.json").read_text())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _key(command: str, out: str) -> list:
    got = json.loads(out)
    if command == "mcd":
        return ["mcd", got["case"]]
    key = ["bound", got["formula"]["case"], got["lower_bound"]["case"],
           got["lower_bound"]["equality"]]
    if "admissible" in got:
        key += [got["admissible"]["case"], got["admissible"]["ok"]]
    return key


def test_corpus_has_one_case_per_combination():
    keys = [tuple(case["key"]) for case in CASES]
    assert len(set(keys)) == len(keys) >= 60
    assert {key[0] for key in keys} == {"mcd", "bound"}


@pytest.mark.parametrize("case", CASES, ids=lambda c: " | ".join(map(str, c["key"])))
def test_formula_output_unchanged(case):
    rc, out, err = _run(case["argv"])
    assert rc == case["exit"], err
    assert _key(case["argv"][0], out) == case["key"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
