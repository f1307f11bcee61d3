"""One `compose` input per construction branch, replayed against digests.

tests/data/branch_digests.json holds, for each distinct trace shape of the
witness construction (block, quaternion twist, finishing layer), the
fastest argv that reaches it, with the exit code, degree, trace and the
sha256 of stdout that the program printed when the file was written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from cliffcomp import cli

CASES = json.loads((Path(__file__).parent / "data" / "branch_digests.json").read_text())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def test_corpus_has_one_case_per_trace_shape():
    traces = [tuple(case["trace"]) for case in CASES]
    assert len(set(traces)) == len(traces) >= 30


@pytest.mark.parametrize("case", CASES, ids=lambda c: " | ".join(c["trace"][1:]))
def test_branch_output_unchanged_and_replays(case):
    rc, out, err = _run(case["argv"])
    assert rc == case["exit"], err
    bundle = json.loads(out)
    assert bundle["witness"]["trace"] == case["trace"]
    assert bundle["witness"]["degree"] == case["degree"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
    rc, out, err = _run(["verify", "--object", out])
    assert rc == 0, err
    assert json.loads(out)["degree"] == case["degree"]
