"""Command line surface: schemas, exit codes, determinism, replay."""

import contextlib
import gc
import hashlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from cliffcomp import cli

BASE = [sys.executable, "-m", "cliffcomp.cli"]
DATA = Path(__file__).parent / "data"
BUNDLES = sorted(DATA.glob("bundle_*.json"))


def run_cli(*args, stdin=None):
    return subprocess.run(BASE + list(args), capture_output=True, text=True,
                          input=stdin, timeout=120)


def run_json(*args, stdin=None):
    p = run_cli(*args, stdin=stdin)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


def test_invariants_form():
    out = run_json("invariants", "--object", '{"diag":["1","1","-1","1","-1"]}')
    assert out["n"] == 5
    assert out["degree_of_clifford"] == 4
    assert out["canonical_involution_type"] == "symplectic"
    assert out["clifford_class"]["trivial"] is True


def test_mcd_exact_value():
    out = run_json("mcd", "--object", '{"diag":["1","1","-1","1","-1"]}',
                   "--type", "symplectic", "--class", '[["-1","-1"]]')
    assert out["status"] == "exact"
    assert out["log2"] == 3
    assert out["value"] == 8


def test_mcd_defaults_to_trivial_class():
    out = run_json("mcd", "--object", '{"diag":["1","1","1"]}',
                   "--type", "symplectic")
    assert out["status"] == "exact" and out["value"] == 4


def test_mcd_gram_object_and_finite_field():
    out = run_json("mcd", "--field", "GF(2)",
                   "--object", '{"gram":[["1","1"],["0","1"]]}',
                   "--type", "unitary", "--s", '{"datum":"1"}')
    assert out["status"] == "exact" and out["value"] == 1
    out = run_json("mcd", "--field", '{"kind": "GF", "p": 3}',
                   "--object", '{"diag":["1","1","1"]}', "--type", "symplectic")
    assert out["status"] == "exact" and out["value"] == 2


def test_mcd_quaternion_pair_object():
    out = run_json("mcd", "--object",
                   '{"quaternion_pair":[["-1","-1"],["2","5"]]}',
                   "--type", "symplectic")
    assert out["status"] == "exact" and out["value"] == 4
    assert out["profile"]["source"] == "pair"


def test_mcd_excluded_case_exits_3():
    p = run_cli("mcd", "--object", '{"diag":["1","-1","1","-1","1","-1"]}',
                "--type", "unitary", "--s", '{"datum":"2"}')
    assert p.returncode == 3
    err = json.loads(p.stderr)
    assert err["error"] == "not-covered"
    # the stdout payload still carries the diagnosis
    body = json.loads(p.stdout)
    assert body["status"] == "not-covered-by-paper"


@pytest.mark.parametrize(
    "args",
    [
        ("mcd", "--object", '{"bogus":1}', "--type", "symplectic"),
        ("mcd", "--object", '{"diag":["1","1"]}', "--type", "unitary"),
        ("mcd", "--object", 'not json', "--type", "symplectic"),
        ("mcd", "--field", "GF(9000)", "--object", '{"diag":["1","1"]}',
         "--type", "symplectic"),
        ("invariants", "--object", '{"diag":["1","0","1"]}'),
        # a zero denominator anywhere in the input
        ("invariants", "--object", '{"diag":["1/0",1]}'),
        ("mcd", "--object", '{"diag":["1","1","1"]}', "--type", "symplectic",
         "--class", '[["1/0","1"]]'),
        ("mcd", "--object", '{"diag":["1","1","1"]}', "--type", "unitary",
         "--s", '{"datum":"1/0"}'),
        ("example1", "--a", "1/0", "--b", "1"),
        # JSON of the wrong shape
        ("invariants", "--object", "5"),
        ("invariants", "--object", "null"),
        ("invariants", "--object", '{"diag":5}'),
        ("invariants", "--object", '{"gram":5}'),
        ("invariants", "--object", '{"gram":[1,2]}'),
        ("invariants", "--object", '{"quaternion_pair":5}'),
        ("mcd", "--object", '{"diag":[1,1,1]}', "--type", "symplectic", "--class", "5"),
        ("mcd", "--object", '{"diag":[1,1,1]}', "--type", "symplectic", "--class", "[5]"),
        ("mcd", "--object", '{"diag":[1,1,1]}', "--type", "unitary", "--s", "[1]"),
        ("mcd", "--object", '{"diag":[1,1,1]}', "--type", "unitary", "--s", "3"),
        # a split flag that is no JSON boolean
        *[("mcd", "--object", '{"diag":[1,1,1,1]}', "--type", "unitary", "--s", s)
          for s in ('{"split": "false"}', '{"split": "no"}', '{"split": 1}')],
        ("verify", "--object", "[1]"),
        # more than one shape in one object
        ("invariants", "--object", '{"diag":[1,1],"gram":[[1]]}'),
        ("invariants", "--object", '{"gram":[[1]],"quaternion_pair":[[1,1],[1,1]]}'),
        ("mcd", "--object", '{"diag":[1,1,1],"quaternion_pair":[[-1,-1],[2,5]]}',
         "--type", "symplectic"),
        # a symbol, or a pair of symbols, that is not a pair
        ("invariants", "--object", '{"quaternion_pair":[[1,1]]}'),
        ("invariants", "--object", '{"quaternion_pair":[[-1,-1],[2,5],[3,7]]}'),
        ("invariants", "--object", '{"quaternion_pair":[[-1,-1],[2]]}'),
        ("mcd", "--object", '{"diag":[1,1,1]}', "--type", "symplectic", "--class", "[[1]]"),
        ("mcd", "--object", '{"diag":[1,1,1]}', "--type", "symplectic", "--class", "[[1,2,3]]"),
        # a field descriptor of the wrong shape
        *[("invariants", "--field", field, "--object", '{"diag":[1,1]}')
          for field in ('{"kind":"GF","p":3,"k":2,"modulus":5}',
                        '{"kind":"GF","p":3,"k":2,"modulus":[1,"a",1]}',
                        '{"kind":"GF","p":[3]}', '{"kind":"GF","p":3,"k":0}',
                        '{"kind":"GF","k":2}')],
        # a symbol that is no quaternion algebra, on every field
        *[(command, "--field", field, "--object", '{"diag":[1,1,1]}', "--type", "orthogonal",
           "--class", cls)
          for command in ("mcd", "compose") for field in ("Q", "GF(3)")
          for cls in ("[[0,1]]", "[[1,0]]")],
        ("mcd", "--field", "GF(2)", "--object", '{"gram":[[1,1],[0,1]]}', "--type", "orthogonal",
         "--class", "[[1,0]]"),
        # bundle problem fields of the wrong JSON type
        *[("verify", "--object", json.dumps({
            "problem": {"object": {"diag": [1, 1]}, "type": "orthogonal", **fields},
            "witness": {}}))
          for fields in ({"field": 5},)],
    ],
)
def test_invalid_inputs_exit_2(args):
    p = run_cli(*args)
    assert p.returncode == 2, (p.stdout, p.stderr)
    assert json.loads(p.stderr)["error"] == "invalid-input"


@pytest.mark.parametrize("args, message", [
    (("invariants", "--object", '{"quaternion_pair":[[1,1]]}'),
     "quaternion_pair must be a JSON array of two entries"),
    (("invariants", "--object", '{"quaternion_pair":[[-1,-1],[2]]}'),
     "a quaternion symbol must be a JSON array of two entries"),
    (("mcd", "--object", '{"diag":[1,1,1]}', "--type", "symplectic", "--class", "[[1]]"),
     "a symbol must be a JSON array of two entries"),
    (("invariants", "--object", '{"diag":[1,1],"gram":[[1]]}'),
     "--object has more than one of diag, gram"),
])
def test_malformed_objects_and_symbols_are_named(args, message):
    assert json.loads(run_cli(*args).stderr)["message"] == message


@pytest.mark.parametrize("command", ["invariants", "mcd", "bound", "compose"])
def test_the_seed_flag_is_unknown(command):
    # a witness is a function of its problem
    args = ["--object", '{"diag":[1,1,1]}']
    if command != "invariants":
        args += ["--type", "symplectic"]
    assert run_cli(command, *args, "--seed", "3").returncode == 2


def test_verify_ignores_the_seed_of_an_older_bundle():
    bundle = json.loads((DATA / "bundle_diag.json").read_text())
    bundle["problem"]["seed"] = bundle["witness"]["seed"] = 3
    p = run_cli("verify", stdin=json.dumps(bundle))
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["verified"] is True


@pytest.mark.parametrize("witness", [[1], None])
def test_verify_rejects_a_witness_that_is_no_object(witness):
    bundle = json.loads((DATA / "bundle_diag.json").read_text())
    bundle["witness"] = witness
    p = run_cli("verify", stdin=json.dumps(bundle))
    assert p.returncode == 4, (p.stdout, p.stderr)
    assert json.loads(p.stderr)["error"] == "certification-failure"


def test_the_truncation_cap_flag_is_unknown():
    # the pair construction reads its one saturation degree off deg A
    assert run_cli("invariants", "--object", '{"quaternion_pair":[[1,1],[1,1]]}',
                   "--truncation-cap", "4").returncode == 2


def test_verify_refuses_a_bundle_of_the_wrong_shape_on_stdin():
    p = run_cli("verify", stdin="[1]\n")
    assert p.returncode == 2, (p.stdout, p.stderr)
    assert json.loads(p.stderr)["error"] == "invalid-input"


def test_square_datum_gives_split_s():
    # over GF(2) the datum 2 = 0 = t^2 + t is an Artin-Schreier value
    args = ("compose", "--field", "GF(2)", "--object", '{"gram":[[0,1],[0,0]]}',
            "--type", "unitary")
    by_datum = run_json(*args, "--s", '{"datum": 2}')
    split = run_json(*args, "--s", '{"split": true}')
    assert by_datum["witness"]["degree"] == split["witness"]["degree"]


def test_mcd_with_a_large_prime_entry_returns():
    p = subprocess.run(BASE + ["mcd", "--object", '{"diag":[1,1,1000000000000000003]}',
                               "--type", "orthogonal"],
                       capture_output=True, text=True, timeout=10)
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout)
    assert out["status"] == "exact" and out["value"] == 4


def test_compose_with_a_large_prime_entry_returns():
    p = subprocess.run(BASE + ["compose", "--object", '{"diag":[1,-1000000000000000003]}',
                               "--type", "orthogonal"],
                       capture_output=True, text=True, timeout=10)
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout)
    assert out["verified"] is True and out["witness"]["degree"] == 2


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("request_args", [
    ["--object", '{"diag":[1,3]}', "--type", "unitary", "--s", '{"split": true}'],
    ["--object", '{"diag":[1,2]}', "--type", "orthogonal"],
    ["--object", '{"diag":[1,1,1,3]}', "--type", "orthogonal"],
], ids=["unitary", "orthogonal-rescaled", "orthogonal-split-center"])
def test_compose_over_a_large_prime_field_returns(request_args):
    # neither the rescaling pool nor a square root walks the whole field;
    # the address-space cap turns a runaway list into a MemoryError
    p = subprocess.run(BASE + ["compose", "--field", "GF(1000000007)"] + request_args,
                       capture_output=True, text=True, timeout=10,
                       preexec_fn=_limit_address_space)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["verified"] is True


def test_invariants_over_gf_2_20_returns():
    # the Artin-Schreier test reads the absolute trace instead of walking
    # the 2^20 elements
    p = subprocess.run(BASE + ["invariants", "--field", '{"kind":"GF","p":2,"k":20}',
                               "--object", '{"gram":[[1,1],[0,1]]}'],
                       capture_output=True, text=True, timeout=10)
    assert p.returncode == 0, p.stderr
    # t^2 + t = 1 is solvable iff k is even: the trace of 1 is k mod 2
    assert json.loads(p.stdout)["center"]["split"] is True


def test_invariants_over_a_field_above_the_order_bound_exits_2():
    # refused before any modulus search or Rabin test, which on a
    # degree-5000 modulus would run for minutes
    p = subprocess.run(BASE + ["invariants", "--field", '{"kind":"GF","p":2,"k":5000}',
                               "--object", '{"diag":[1,1]}'],
                       capture_output=True, text=True, timeout=10)
    assert p.returncode == 2, p.stderr
    assert json.loads(p.stderr)["type"] == "InputTooLargeError"


def test_invariants_over_gf_65519_4_returns():
    # no binomial x^4 + c is irreducible for p = 3 mod 4; the criterion
    # says so without one Rabin test per c
    p = subprocess.run(BASE + ["invariants", "--field", '{"kind":"GF","p":65519,"k":4}',
                               "--object", '{"diag":[1,1]}'],
                       capture_output=True, text=True, timeout=10)
    assert p.returncode == 0, p.stderr


def test_compose_over_gf_1009_2_square_root_of_a_prime_nonsquare():
    # 17 is a nonsquare mod 1009, so its root lies off GF(1009): Tonelli-Shanks
    # finds the same root as the walk over the field did, and the output is
    # byte-identical
    p = subprocess.run(BASE + ["compose", "--field", '{"kind":"GF","p":1009,"k":2}',
                               "--object", '{"diag":[1,1,1,17]}', "--type", "orthogonal"],
                       capture_output=True, text=True, timeout=10)
    assert p.returncode == 0, p.stderr
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == \
        "dceae1d2e8e2c6dba08c8b710530452d37ca0e744f2cf523e08bc27c7532c96f"


def run_inprocess(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", [
    ["invariants"],
    ["mcd", "--type", "orthogonal", "--class", "[[-1, -1]]"],
    ["bound", "--type", "orthogonal", "--class", "[[-1, -1]]"],
], ids=["invariants", "mcd", "bound"])
def test_splitting_recursion_beyond_the_factoring_bound_returns(command):
    # the last symbol of the recursion holds -64227393753190719975, above
    # the factoring bound; the places come from the diagonal entries
    rc, out, err = run_inprocess(*command, "--field", "Q",
                                 "--object", '{"diag": [7, 11, 3, 1, 5, 5, 1, 7]}')
    assert rc == 0, err
    if command[0] == "invariants":
        over_center = json.loads(out)["clifford_class_over_center"]
        assert over_center["base"] == "Q(sqrt 33)" and over_center["support"] == []
        assert ["-64227393753190719975", "-449591756272335039825"] in over_center["symbols"]


def test_compose_six_dim_form_over_q_reaches_the_formula_degree():
    # the rescaled class comes from the scaling formula, so no entry grows
    rc, out, err = run_inprocess("compose", "--object", '{"diag":[1,-1,2,3,5,7]}',
                                 "--type", "orthogonal")
    assert rc == 0, err
    bundle = json.loads(out)
    assert bundle["witness"]["degree"] == 16 == bundle["witness"]["expected"]["value"]
    rc, _, err = run_inprocess("verify", "--object", out)
    assert rc == 0, err


def _compose_and_replay(*args):
    """compose, then verify of its bundle, each in a subprocess given 10 s."""
    p = subprocess.run(BASE + ["compose", *args], capture_output=True, text=True, timeout=10)
    assert p.returncode == 0, p.stderr
    replay = subprocess.run(BASE + ["verify"], input=p.stdout, capture_output=True, text=True,
                            timeout=10)
    assert replay.returncode == 0, replay.stderr
    assert json.loads(replay.stdout)["verified"] is True
    return json.loads(p.stdout)["witness"]


def test_compose_rescales_a_gram_form_by_a_prime_outside_the_old_pool():
    # the rescaling sweep held only 2, 3 and 17 and stopped at a degree-16
    # block; the solve adds primes until lam = -5 reaches the exact value 8
    gram = [[-3, 0, 0, 1, 1, 0], [0, -1, 0, 0, 0, 0], [0, 0, 2, 0, 1, -1],
            [0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 3, -1], [0, 0, 0, 0, 0, -1]]
    witness = _compose_and_replay("--object", json.dumps({"gram": gram}), "--type", "orthogonal")
    assert witness["degree"] == 8 == witness["expected"]["value"]
    assert "rescaled the form by -5" in witness["trace"]


def test_compose_twists_by_a_quaternion_model_ramified_at_241():
    gram = [[1, -1, 0, 0], [0, 3, -1, 0], [0, 0, 2, 1], [0, 0, 0, 3]]
    witness = _compose_and_replay("--object", json.dumps({"gram": gram}), "--type", "unitary",
                                  "--s", '{"split": true}')
    assert witness["degree"] == 8
    assert witness["class_symbols"] == [["-7", "-241"]]


@pytest.mark.parametrize("entries,degree,twisted", [
    ([1, 1, 1, 1, 1, -1], 16, True),
    ([1, -1, 2, -2, 3, -3], 8, False),
])
@pytest.mark.parametrize("kind", ["orthogonal", "symplectic"])
def test_compose_through_both_corners_of_a_split_center_over_q(entries, degree, twisted, kind):
    # n = 6: the corners have dimension 16, and their classes come from
    # the profile
    rc, out, err = run_inprocess("compose", "--object", json.dumps({"diag": entries}),
                                 "--type", kind)
    assert rc == 0, err
    witness = json.loads(out)["witness"]
    assert (witness["degree"], witness["involution_type"]) == (degree, kind)
    assert witness["trace"][-1] == "both corners mapped block-diagonally, the second one twisted"
    assert any(line.startswith("tensored with") for line in witness["trace"]) == twisted
    rc, _, err = run_inprocess("verify", "--object", out)
    assert rc == 0, err


@pytest.mark.parametrize("entries", [
    [1, 1, 1, 3, 5, -15],
    [2, 3, 5, 7, 11, -2310],
    [1, 1, 1, 1, 1, 1, -1, -1],
    [-1] * 8,
    [1, -1, 2, -2, 3, -3, 5, -5],
    [1, 2, 3, 6, 1, 1, 1, 1],
], ids=str)
@pytest.mark.parametrize("kind", ["orthogonal", "symplectic"])
def test_split_corners_over_q_compose_at_the_exact_value(entries, kind):
    # the corners of dimension 16 and 64 take their classes from the
    # profile; no compressing idempotent is searched for
    args = ("--object", json.dumps({"diag": entries}), "--type", kind)
    rc, out, err = run_inprocess("mcd", *args)
    assert rc == 0, err
    expected = json.loads(out)
    assert expected["status"] == "exact"
    rc, out, err = run_inprocess("compose", *args)
    assert rc == 0, err
    witness = json.loads(out)["witness"]
    assert (witness["degree"], witness["involution_type"]) == (expected["value"], kind)
    rc, _, err = run_inprocess("verify", "--object", out)
    assert rc == 0, err


def test_oversized_clifford_algebra_fails_fast():
    form = json.dumps({"diag": [1] * 12})
    common = ["--field", "GF(3)", "--object", form, "--type", "orthogonal"]
    p = subprocess.run(BASE + ["compose"] + common, capture_output=True, text=True, timeout=10)
    assert p.returncode == 2
    assert json.loads(p.stderr)["type"] == "InputTooLargeError"
    # the formulas build no algebra
    p = subprocess.run(BASE + ["mcd"] + common, capture_output=True, text=True, timeout=10)
    assert p.returncode == 0, p.stderr


def test_back_to_back_runs_share_no_state():
    def run(*argv):
        return run_inprocess(*argv)[:2]

    compose = ("compose", "--object", '{"diag":["1","1","1"]}', "--type", "symplectic")
    rc, first = run(*compose)
    assert rc == 0
    assert run("compose", "--object", '{"diag":[1,1,1]}', "--type", "hermitian")[0] == 2
    assert run(*compose) == (0, first)


def test_bound_with_a_huge_degree_and_no_two_term_solution_returns():
    # both factor classes are at distance 1, so the two-term form has
    # no solution; the scan stops after one period of n1
    p = subprocess.run(BASE + ["bound", "--object", '{"diag":[1,1,1,1]}', "--type", "orthogonal",
                               "--bound", "2000000000002"],
                       capture_output=True, text=True, timeout=10)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["admissible"]["ok"] is False


def test_bound_with_candidate_degree():
    out = run_json("bound", "--object", '{"diag":["1","1","1"]}',
                   "--type", "symplectic", "--class", '[["-1","-1"]]',
                   "--bound", "2")
    assert out["lower_bound"]["value"] == 2
    assert out["lower_bound"]["equality"] is True
    assert out["admissible"]["ok"] is True


def test_compose_emits_verified_witness():
    out = run_json("compose", "--object", '{"diag":["1","1","1"]}',
                   "--type", "symplectic", "--class", '[["-1","-1"]]')
    assert out["verified"] is True
    assert out["witness"]["degree"] == 2
    assert out["witness"]["expected"]["status"] == "exact"


def test_compose_deterministic():
    args = ("compose", "--object", '{"diag":["1","1","1","1"]}',
            "--type", "symplectic", "--class", '[["-1","-1"]]')
    assert run_json(*args) == run_json(*args)


def test_verify_replays_compose_bundle():
    bundle = run_json("compose", "--object", '{"diag":["1","1","1"]}',
                      "--type", "unitary", "--s", '{"datum":"-1"}')
    out = run_json("verify", stdin=json.dumps(bundle))
    assert out["verified"] is True
    assert out["degree"] == bundle["witness"]["degree"]


def test_verify_rejects_tampered_bundle():
    bundle = run_json("compose", "--object", '{"diag":["1","1","1"]}',
                      "--type", "symplectic", "--class", '[["-1","-1"]]')
    bundle["witness"]["degree"] = 16
    p = run_cli("verify", stdin=json.dumps(bundle))
    assert p.returncode == 4
    assert json.loads(p.stderr)["error"] == "certification-failure"


def test_example1_reports_both_compositions():
    p = run_cli("example1", "--a", "-1", "--b", "-1")
    assert p.returncode == 0
    assert p.stdout.count('"verified": true') == 2
    out = json.loads(p.stdout)
    assert out["degree"] == 4 and out["minimal_degree"] == 4
    assert all(out["checks"].values())


def test_example1_generic_parameters():
    out = run_json("example1", "--a", "2", "--b", "3")
    assert out["compositions"]["anti_hermitian"]["verified"] is True
    assert out["compositions"]["hermitian"]["verified"] is True


def test_example1_rejects_zero():
    assert run_cli("example1", "--a", "0", "--b", "1").returncode == 2


def test_selftest_passes():
    out = run_json("selftest")
    assert out["failed"] == 0
    assert out["passed"] >= 8


@pytest.mark.parametrize("path", BUNDLES, ids=lambda p: p.stem)
def test_committed_bundles_replay(path):
    # bundles made by an earlier version; verify rebuilds each witness and
    # requires the JSON to match byte for byte
    p = run_cli("verify", stdin=path.read_text())
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["verified"] is True


CONSTRUCTION = {f"cliffcomp.{m}" for m in ("algebra", "clifford", "qpair", "compose", "example")}
LOADED = ("import contextlib, io, json, sys; from cliffcomp import cli\n"
          "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
          "    rc = cli.run(json.loads(sys.argv[1]))\n"
          "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('cliffcomp'))]))")


def loaded_by(argv: list) -> tuple:
    """The exit code of cli.run(argv) in a fresh interpreter, and the
    cliffcomp modules loaded when it returns."""
    p = subprocess.run([sys.executable, "-c", LOADED, json.dumps(argv)], capture_output=True,
                       text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    rc, modules = json.loads(p.stdout)
    return rc, set(modules)


@pytest.mark.parametrize("command", ["invariants", "mcd", "bound"])
@pytest.mark.parametrize("field, obj, code", [
    ("Q", {"diag": [1, -1, 2]}, 0),
    ("Q", {"gram": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}, 0),
    ("GF(3)", {"diag": [1, -1, 2]}, 0),
    ("GF(3)", {"gram": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}, 0),
    ("GF(2)", {"diag": [1, 1, 1]}, 2),  # a diagonal form is never regular there
    ("GF(2)", {"gram": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}, 0),
])
def test_a_formula_command_loads_no_construction_module(command, field, obj, code):
    argv = [command, "--field", field, "--object", json.dumps(obj)]
    if command != "invariants":
        argv += ["--type", "orthogonal"]
    rc, modules = loaded_by(argv)
    assert rc == code
    assert {"cliffcomp.cli", "cliffcomp.mcd"} <= modules
    assert not modules & CONSTRUCTION, sorted(modules & CONSTRUCTION)


@pytest.mark.parametrize("argv, needs", [
    (["compose", "--object", '{"diag":[1,1,1]}', "--type", "symplectic"], "compose"),
    (["invariants", "--object", '{"quaternion_pair":[[-1,-1],[2,5]]}'], "qpair"),
    (["example1", "--a", "-1", "--b", "-1"], "example"),
])
def test_building_an_algebra_loads_the_construction_layer(argv, needs):
    rc, modules = loaded_by(argv)
    assert rc == 0
    assert {"cliffcomp.algebra", "cliffcomp.clifford", f"cliffcomp.{needs}"} <= modules


@pytest.mark.parametrize("value", [
    {}, [], (), [[]], [{}], {"a": {}, "b": []}, [1, [2, [3, {"x": ()}]]], (1, "a", (None,)),
    "", "plain", "caf\u00e9 \u2203 \U0001d11e", "\x00\x1f\n\t\"\\/", {"\u00e9\n": "\x7f"},
    True, False, None, 0, -1, 10 ** 40, -(10 ** 40), {"ok": True, "none": None, "n": -7},
    {1: "int", True: "bool", None: "none", 2.5: "float"},
])
def test_dumps_matches_the_indented_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("path", BUNDLES, ids=lambda p: p.stem)
def test_dumps_matches_the_indented_json_dumps_on_a_bundle(path):
    value = json.loads(path.read_text())
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_a_query_leaves_no_cyclic_garbage():
    argv = ["mcd", "--object", '{"diag":[1,-1,2]}', "--type", "symplectic"]
    run_inprocess(*argv)  # the parser is built on the first call
    gc.collect()
    gc.disable()
    try:
        rc, out, _ = run_inprocess(*argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert rc == 0 and json.loads(out)["status"] == "exact"


def test_selftest_runs_without_numpy():
    code = ("import sys; sys.modules['numpy'] = None; "
            "from cliffcomp.cli import run; sys.exit(run(['selftest']))")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr


def test_a_reader_that_closes_the_pipe_gets_no_traceback():
    # the output, about 160 kB, outgrows the pipe buffer, so the writer is
    # still printing when the reader closes its end
    p = subprocess.Popen(BASE + ["compose", "--field", "GF(3)", "--object",
                                 '{"diag":[1,1,1,1,1,1,1,1]}', "--type", "orthogonal"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert p.stdout.readline() == "{\n"
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
