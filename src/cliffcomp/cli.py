"""Command line surface: JSON problem descriptions in, JSON results out.

Exit codes: 0 success, 2 invalid input, 3 not covered by the formula
case list, 4 certification failure.  Errors are also emitted as
structured JSON on standard error.  Rationals travel as strings.

The formula commands (invariants, mcd and bound on a form) read the
degree formulas off the form's invariants and build no algebra, so this
module loads only the formula layer: scalars, linalg, quadform, brauer
and mcd.  The construction layer (algebra, clifford, qpair, compose,
example) is imported where an algebra is built: by compose, verify,
example1 and selftest, and for a quaternion_pair object.
"""

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .errors import (
    CertificationError,
    CliffcompError,
    NotCoveredError,
    UnsupportedInputError,
)
from .scalars import (
    QQ,
    EtaleQuadratic,
    Field,
    PrimeField,
    check_quaternion_parameters,
    field_from_json,
    hilbert_symbol,
    hilbert_symbol_bruteforce,
    Place,
    PLACE_REAL,
    quad_ext_info,
)
from .quadform import QuadraticSpace
from .brauer import BrauerClass, trivial_class
from .mcd import (
    NOT_COVERED,
    classify,
    dbound_min_degree,
    profile_from_form,
    profile_from_pair_clifford,
)

EXIT_OK, EXIT_INVALID, EXIT_NOT_COVERED, EXIT_CERT = 0, 2, 3, 4


# ---------------------------------------------------------------------------
# input decoding

def _parse_field(spec) -> Field:
    if spec is None:
        return QQ
    s = spec.strip()
    if s.startswith("{"):
        d = json.loads(s)
        if d.get("kind") == "GF":
            _shaped(d.get("p"), int, "the field's p")
            if _shaped(d.get("k", 1), int, "the field's k") < 1:
                raise UnsupportedInputError("the field's k must be at least 1")
            for c in _shaped(d.get("modulus", []), list, "the field's modulus"):
                _shaped(c, int, "a modulus coefficient")
        return field_from_json(d)
    if s in ("Q", "QQ"):
        return QQ
    if s.startswith("GF(") and s.endswith(")"):
        return field_from_json({"kind": "GF", "p": int(s[3:-1])})
    raise UnsupportedInputError(f"unknown field descriptor {spec!r}")


def _shaped(value, kind: type, what: str):
    """value when it is a JSON object (kind dict), array (list), integer
    (int; a bool is not one), string (str) or boolean (bool)."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        name = {dict: "object", list: "array", int: "integer", str: "string", bool: "boolean"}[kind]
        raise UnsupportedInputError(f"{what} must be a JSON {name}")
    return value


def _pair(value, what: str) -> list:
    """value when it is a JSON array of two entries."""
    if len(_shaped(value, list, what)) != 2:
        raise UnsupportedInputError(f"{what} must be a JSON array of two entries")
    return value


def _parse_matrix(F: Field, rows) -> list:
    return [[F.parse(str(v)) for v in _shaped(row, list, "a matrix row")]
            for row in _shaped(rows, list, "a matrix")]


def _parse_object(F: Field, spec: str):
    """Returns ("form", QuadraticSpace) or ("pair", PairCliffordData)."""
    d = _shaped(json.loads(spec), dict, "--object")
    shapes = [k for k in ("diag", "gram", "quaternion_pair") if k in d]
    if len(shapes) > 1:
        raise UnsupportedInputError(f"--object has more than one of {', '.join(shapes)}")
    if "diag" in d:
        diag = _shaped(d["diag"], list, "diag")
        return "form", QuadraticSpace.diagonal(F, [F.parse(str(v)) for v in diag])
    if "gram" in d:
        # upper-triangular coefficient matrix: entry (i, j) with i <= j is
        # the coefficient of x_i x_j
        return "form", QuadraticSpace(F, _parse_matrix(F, d["gram"]))
    if "quaternion_pair" in d:
        from .algebra import QuaternionAlgebra
        from .clifford import clifford_of_pair
        from .qpair import pair_on_quaternion_tensor

        (a1, b1), (a2, b2) = [_pair(s, "a quaternion symbol")
                              for s in _pair(d["quaternion_pair"], "quaternion_pair")]
        Q1 = QuaternionAlgebra(F, F.parse(str(a1)), F.parse(str(b1)))
        Q2 = QuaternionAlgebra(F, F.parse(str(a2)), F.parse(str(b2)))
        pair = pair_on_quaternion_tensor(Q1, Q2)
        return "pair", clifford_of_pair(pair)
    raise UnsupportedInputError(f"unknown object description {spec!r}")


def _parse_class(F: Field, spec) -> BrauerClass:
    if spec is None:
        return trivial_class(F)
    symbols = []
    for s in _shaped(json.loads(spec), list, "--class"):
        a, b = (F.parse(str(x)) for x in _pair(s, "a symbol"))
        check_quaternion_parameters(F, a, b)
        symbols.append((a, b))
    return BrauerClass(F, symbols)


def _parse_s(F: Field, spec: str) -> EtaleQuadratic:
    """S from {"split": true} or from {"datum": d}; a datum that is a
    square (an Artin-Schreier value t^2 + t in characteristic 2) gives the
    split algebra."""
    d = _shaped(json.loads(spec), dict, "--s")
    datum = F.parse(str(d.get("datum", "1")))
    if _shaped(d.get("split", False), bool, "split"):
        return EtaleQuadratic(F, datum, True)
    return quad_ext_info(F, datum)


def _parse_request(F: Field, args) -> dict:
    t = args.type
    if t in ("orthogonal", "symplectic"):
        return {"kind": "first", "c": _parse_class(F, args.cls), "t": t}
    if t == "unitary":
        if args.s is None:
            raise UnsupportedInputError("unitary requests need --s")
        return {"kind": "unitary", "S": _parse_s(F, args.s),
                "c0": _parse_class(F, args.cls)}
    raise UnsupportedInputError(f"unknown composition type {t!r}")


def _profile(kind: str, obj):
    return profile_from_form(obj) if kind == "form" else profile_from_pair_clifford(obj)


def _problem_echo(args) -> dict:
    return {
        "field": args.field,
        "object": json.loads(args.object) if args.object else None,
        "type": getattr(args, "type", None),
        "class": json.loads(args.cls) if args.cls else None,
        "s": json.loads(args.s) if args.s else None,
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_invariants(args) -> dict:
    F = _parse_field(args.field)
    kind, obj = _parse_object(F, args.object)
    return _profile(kind, obj).to_json()


def _case(args):
    """The profile of the object and the case of the request, classified once."""
    F = _parse_field(args.field)
    kind, obj = _parse_object(F, args.object)
    prof = _profile(kind, obj)
    return prof, classify(prof, _parse_request(F, args))


def _cmd_mcd(args) -> dict:
    prof, case = _case(args)
    out = case.mcd.to_json()
    out["profile"] = prof.to_json()
    if case.mcd.status == NOT_COVERED:
        print(_dumps(out))
        raise NotCoveredError(f"not covered: {case.mcd.case}")
    return out


def _cmd_bound(args) -> dict:
    _, case = _case(args)
    out = {"lower_bound": case.bound.to_json(), "formula": case.mcd.to_json()}
    if args.bound is not None:
        out["candidate_degree"] = args.bound
        out["admissible"] = case.admissible(args.bound)
    return out


def _cmd_compose(args) -> dict:
    from .compose import construct_composition

    F = _parse_field(args.field)
    kind, obj = _parse_object(F, args.object)
    request = _parse_request(F, args)
    wit = construct_composition(obj, request)
    return {"problem": _problem_echo(args), "witness": wit.to_json(), "verified": True}


def _cmd_verify(args) -> dict:
    bundle = _shaped(json.loads(args.object) if args.object else json.load(sys.stdin),
                     dict, "the bundle")
    problem = _shaped(bundle["problem"], dict, "the bundle's problem")
    field = problem.get("field")
    rebuilt = _cmd_compose(argparse.Namespace(
        field=None if field is None else _shaped(field, str, "the bundle's field"),
        object=json.dumps(problem["object"]),
        type=problem.get("type"),
        cls=json.dumps(problem["class"]) if problem.get("class") is not None else None,
        s=json.dumps(problem["s"]) if problem.get("s") is not None else None,
    ))
    stored = bundle["witness"]
    if isinstance(stored, dict):  # older versions stored a key that is now dropped
        stored = {k: v for k, v in stored.items() if k != "seed"}
    if rebuilt["witness"] != stored:
        raise CertificationError("replayed witness differs from the bundle")
    return {"verified": True, "degree": rebuilt["witness"]["degree"],
            "involution_type": rebuilt["witness"]["involution_type"]}


def _cmd_example1(args) -> dict:
    from .example import quaternionic_even_model

    F = _parse_field(args.field)
    rep = quaternionic_even_model(F, F.parse(args.a), F.parse(args.b))
    out = rep.to_json()
    out["compositions"] = {
        "anti_hermitian": {"gram": "[[0,1],[-1,0]] over the k-twisted involution",
                           "verified": bool(rep.checks.get("composes_anti_hermitian"))},
        "hermitian": {"gram": "[[0,k],[-k,0]] over the canonical involution",
                      "verified": bool(rep.checks.get("composes_hermitian"))},
    }
    return out


def _selftest_cases():
    from .algebra import QuaternionAlgebra
    from .clifford import clifford_of_pair, even_clifford, split_compare
    from .compose import construct_composition, regular_representation
    from .example import quaternionic_even_model
    from .qpair import pair_from_form

    Z = QQ.from_int

    def classes_metric():
        syms = [[], [(-1, -1)], [(2, 5)], [(-1, -1), (2, 5)], [(3, 7)]]
        cs = [BrauerClass(QQ, [(Z(a), Z(b)) for a, b in s]) for s in syms]
        for x in cs:
            assert x.distance(x) == 0
            for y in cs:
                assert x.distance(y) == y.distance(x)
                for z in cs:
                    assert x.distance(z) <= x.distance(y) + y.distance(z)
        return "metric axioms on 5 classes"

    def hilbert_agreement():
        places = [PLACE_REAL, Place(2), Place(3), Place(5)]
        for a in range(-6, 7):
            for b in range(-6, 7):
                if a and b:
                    for v in places:
                        assert hilbert_symbol(Z(a), Z(b), v) == \
                            hilbert_symbol_bruteforce(Z(a), Z(b), v)
        return "Hilbert symbols vs congruence oracle, |a|,|b| <= 6"

    def clifford_dims():
        for entries, dim in [([1, 1, 1], 4), ([1, 1, 1, 1], 8), ([1, -1], 2)]:
            q = QuadraticSpace.diagonal(QQ, [Z(v) for v in entries])
            _, C0, _, _, _ = even_clifford(q)
            assert C0.dim == dim
        return "even Clifford dimensions"

    def pair_coherence():
        q = QuadraticSpace.diagonal(QQ, [Z(1), Z(-1)])
        pair, aux = pair_from_form(q)
        data = clifford_of_pair(pair)
        split_compare(data, aux)
        return "pair Clifford matches the even Clifford algebra on <1,-1>"

    def compose_quick():
        q3 = QuadraticSpace.diagonal(QQ, [Z(1)] * 3)
        c = BrauerClass(QQ, [(Z(-1), Z(-1))])
        wit = construct_composition(q3, {"kind": "first", "c": c, "t": "symplectic"})
        assert wit.degree == 2
        S = EtaleQuadratic(QQ, Z(-1), False)
        wit = construct_composition(q3, {"kind": "unitary", "S": S,
                                         "c0": trivial_class(QQ)})
        assert wit.degree == 2
        F2 = PrimeField(2)
        q2 = QuadraticSpace(F2, [[1, 1], [0, 1]])
        wit = construct_composition(q2, {"kind": "unitary",
                                         "S": EtaleQuadratic(F2, 1, False),
                                         "c0": trivial_class(F2)})
        assert wit.degree == 1
        return "three composition witnesses at the formula degree"

    def model_check():
        rep = quaternionic_even_model(QQ, Z(-1), Z(-1))
        assert all(rep.checks.values()) and rep.minimal_degree == 4
        return "quaternionic model certified"

    def dbound_check():
        c = BrauerClass(QQ, [(Z(-1), Z(-1))])
        assert dbound_min_degree(2, c, trivial_class(QQ)) == 4
        H = QuaternionAlgebra(QQ, Z(-1), Z(-1))
        assert regular_representation(H).B.deg == 4
        return "distance bound realized by the regular representation"

    def exclusion_check():
        q6 = QuadraticSpace.diagonal(QQ, [Z(1), Z(-1)] * 3)
        S = EtaleQuadratic(QQ, Z(2), False)
        try:
            construct_composition(q6, {"kind": "unitary", "S": S,
                                       "c0": trivial_class(QQ)})
        except NotCoveredError:
            return "excluded configuration refused honestly"
        raise CertificationError("excluded configuration was not refused")

    return [classes_metric, hilbert_agreement, clifford_dims, pair_coherence,
            compose_quick, model_check, dbound_check, exclusion_check]


def _cmd_selftest(args) -> dict:
    results = []
    failed = 0
    for fn in _selftest_cases():
        try:
            detail = fn()
            results.append({"name": fn.__name__, "ok": True, "detail": detail})
        except Exception as e:  # noqa: BLE001 - report and count every failure
            failed += 1
            results.append({"name": fn.__name__, "ok": False,
                            "detail": f"{type(e).__name__}: {e}"})
    out = {"cases": results, "passed": len(results) - failed, "failed": failed}
    if failed:
        print(_dumps(out))
        raise CertificationError(f"{failed} selftest case(s) failed")
    return out


# ---------------------------------------------------------------------------
# dispatch

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    p = argparse.ArgumentParser(prog="cliffcomp",
                                description="exact composition degrees for "
                                            "quadratic forms and pairs")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_type=True):
        sp.add_argument("--field", default=None,
                        help='base field: "Q" (default) or "GF(p)" or JSON')
        sp.add_argument("--object", required=True,
                        help='JSON: {"diag": [...]}, {"gram": [[...]]}, '
                             'or {"quaternion_pair": [[a,b],[a,b]]}')
        if with_type:
            sp.add_argument("--type", required=True,
                            choices=["orthogonal", "symplectic", "unitary"])
            sp.add_argument("--class", dest="cls", default=None,
                            help='target class as JSON symbol list [["a","b"],...]')
            sp.add_argument("--s", default=None,
                            help='quadratic extension datum as JSON '
                                 '{"datum": "m"} or {"split": true}')

    common(sub.add_parser("invariants", help="invariant profile of the object"),
           with_type=False)
    common(sub.add_parser("mcd", help="minimal composition degree"))
    spb = sub.add_parser("bound", help="lower bound report")
    common(spb)
    spb.add_argument("--bound", type=int, default=None,
                     help="also check this candidate degree for admissibility")
    common(sub.add_parser("compose", help="build and certify a witness"))
    spv = sub.add_parser("verify", help="replay and re-certify a witness bundle")
    spv.add_argument("--object", default=None,
                     help="witness bundle JSON (default: read stdin)")
    spe = sub.add_parser("example1", help="certified quaternionic model report")
    spe.add_argument("--a", required=True)
    spe.add_argument("--b", required=True)
    spe.add_argument("--field", default=None)
    sub.add_parser("selftest", help="run the built-in property battery")
    return p


_HANDLERS = {
    "invariants": _cmd_invariants,
    "mcd": _cmd_mcd,
    "bound": _cmd_bound,
    "compose": _cmd_compose,
    "verify": _cmd_verify,
    "example1": _cmd_example1,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code else EXIT_OK
    try:
        out = _HANDLERS[args.command](args)
    except NotCoveredError as e:
        _emit_error("not-covered", e)
        return EXIT_NOT_COVERED
    except CertificationError as e:
        _emit_error("certification-failure", e)
        return EXIT_CERT
    except (CliffcompError, ValueError, KeyError) as e:
        # bad input: UnsupportedInputError, malformed JSON (a ValueError)
        # or a missing key
        _emit_error("invalid-input", e)
        return EXIT_INVALID
    print(_dumps(out))
    return EXIT_OK


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), without the pure-Python encoder that an
    indent selects: its closures leave reference cycles for the collector."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        brackets, parts = "[]", [_dumps(v, inner) for v in value]
    elif isinstance(value, dict):
        brackets, parts = "{}", [f"{encode_basestring_ascii(_key(k))}: {_dumps(v, inner)}"
                                 for k, v in value.items()]
    else:
        return json.dumps(value)
    if not parts:
        return brackets
    return brackets[0] + inner + ("," + inner).join(parts) + indent + brackets[1]


def _key(key) -> str:
    """A dict key as json writes it: a string as is, a number, boolean or
    None as its JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit_error(kind: str, e: Exception) -> None:
    print(json.dumps({"error": kind, "type": type(e).__name__, "message": str(e)}),
          file=sys.stderr)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
