"""Each output check accepts a correct output and rejects a corrupted one.

    python3 -m pytest cliffbench/test_checks.py

The correct outputs are worked by hand from the definitions, not copied
from cliffcomp.
"""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import qmath  # noqa: E402

CheckFailed = checks.CheckFailed

# <1, 1, 1> over Q: C0 is Hamilton's quaternions (-1, -1), ramified at inf and 2.
HAMILTON_FORM = {"field": "Q", "shape": "diag", "n": 3, "obj": {"diag": [1, 1, 1]}}
HAMILTON_OUT = {
    "n": 3, "degree_of_clifford": 2, "canonical_involution_type": "symplectic", "source": "form",
    "clifford_class": {"symbols": [["-1", "-1"]], "support": ["2", "inf"], "trivial": False},
}
# <1, 1, 1, 1> over Q: disc 1, split center, both factors (-1, -1).
SPLIT4_FORM = {"field": "Q", "shape": "diag", "n": 4, "obj": {"diag": [1, 1, 1, 1]}}
SPLIT4_OUT = {
    "n": 4, "degree_of_clifford": 2,
    "center": {"datum": "1", "split": True},
    "factor_classes": [{"support": ["2", "inf"], "trivial": False},
                       {"support": ["2", "inf"], "trivial": False}],
}
# <1, 2, 3, 5> over Q: disc 30, a field; [C(q)] is ramified at inf and 3,
# and of those only inf splits in Q(sqrt 30).
FIELD4_FORM = {"field": "Q", "shape": "diag", "n": 4, "obj": {"diag": [1, 2, 3, 5]}}
FIELD4_OUT = {
    "n": 4, "degree_of_clifford": 2,
    "center": {"datum": "30", "split": False},
    "clifford_class_over_center": {"support": ["inf"], "trivial": False},
}
# xy + z^2 + zw + w^2 over GF(2): hyperbolic plus anisotropic plane, Arf 1.
GF2_FORM = {"field": "GF(2)", "shape": "gram", "n": 4,
            "obj": {"gram": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]}}
GF2_OUT = {
    "n": 4, "degree_of_clifford": 2,
    "center": {"datum": "1", "split": False},
    "clifford_class_over_center": {"support": [], "trivial": True},
}


def corrupt(obj, path, value):
    bad = copy.deepcopy(obj)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return bad


def test_qmath_agrees_with_hand_worked_invariants():
    assert qmath.clifford_support([1, 1, 1]) == {"inf", 2}
    assert qmath.clifford_support([1, 2, 3, 5]) == {"inf", 3}
    assert qmath.clifford_support([1, 1, 1, 1, 1, 1, 1, 1]) == set()
    assert qmath.arf_gf2(qmath.coeff_matrix(GF2_FORM["obj"])) == 1
    assert qmath.signed_discriminant("Q", qmath.coeff_matrix(FIELD4_FORM["obj"])) == 30
    assert qmath.splitting_recursion_height([7, 11, 3, 1, 5, 5, 1, 7]) >= qmath.FACTOR_BOUND


def test_degree():
    checks.check_degree(HAMILTON_FORM, HAMILTON_OUT)
    with pytest.raises(CheckFailed):
        checks.check_degree(HAMILTON_FORM, corrupt(HAMILTON_OUT, ["degree_of_clifford"], 4))


def test_support_parity():
    checks.check_support_parity(HAMILTON_OUT)
    with pytest.raises(CheckFailed):
        checks.check_support_parity(corrupt(HAMILTON_OUT, ["clifford_class", "support"], ["inf"]))


def test_finite_trivial():
    checks.check_finite_trivial(GF2_OUT)
    with pytest.raises(CheckFailed):
        checks.check_finite_trivial(corrupt(GF2_OUT, ["clifford_class_over_center", "trivial"], False))


def test_rational_support():
    checks.check_rational_support(HAMILTON_FORM, HAMILTON_OUT)
    checks.check_rational_support(SPLIT4_FORM, SPLIT4_OUT)
    checks.check_rational_support(FIELD4_FORM, FIELD4_OUT)
    with pytest.raises(CheckFailed):
        checks.check_rational_support(
            HAMILTON_FORM, corrupt(HAMILTON_OUT, ["clifford_class", "support"], ["3", "inf"]))
    with pytest.raises(CheckFailed):
        checks.check_rational_support(
            FIELD4_FORM, corrupt(FIELD4_OUT, ["clifford_class_over_center", "support"], ["3", "inf"]))


def test_center():
    checks.check_center(SPLIT4_FORM, SPLIT4_OUT)
    checks.check_center(FIELD4_FORM, FIELD4_OUT)
    checks.check_center(GF2_FORM, GF2_OUT)
    with pytest.raises(CheckFailed):
        checks.check_center(FIELD4_FORM, corrupt(FIELD4_OUT, ["center", "datum"], "6"))
    with pytest.raises(CheckFailed):
        checks.check_center(FIELD4_FORM, corrupt(FIELD4_OUT, ["center", "split"], True))
    with pytest.raises(CheckFailed):
        checks.check_center(GF2_FORM, corrupt(GF2_OUT, ["center", "datum"], "0"))


MCD_OUT = {"status": "exact", "log2": 2, "value": 4, "case": "first-kind/odd"}


def test_mcd():
    checks.check_mcd(MCD_OUT, not_covered=False)
    checks.check_mcd({"status": "not-covered-by-paper", "value": None}, not_covered=True)
    with pytest.raises(CheckFailed):
        checks.check_mcd(corrupt(MCD_OUT, ["value"], 6), not_covered=False)
    with pytest.raises(CheckFailed):
        checks.check_mcd(MCD_OUT, not_covered=True)


def test_bound():
    out = {"lower_bound": {"value": 2}, "formula": {"value": 4}}
    checks.check_bound(out)
    with pytest.raises(CheckFailed):
        checks.check_bound(corrupt(out, ["lower_bound", "value"], 8))


BUNDLE = {"witness": {"degree": 4, "involution_type": "symplectic"}, "verified": True}


def test_witness_degree():
    checks.check_witness_degree(BUNDLE, {"status": "exact", "value": 4})
    checks.check_witness_degree(BUNDLE, {"status": "multiple-only", "value": 2})
    with pytest.raises(CheckFailed):
        checks.check_witness_degree(corrupt(BUNDLE, ["witness", "degree"], 8), {"status": "exact", "value": 4})
    with pytest.raises(CheckFailed):
        checks.check_witness_degree(corrupt(BUNDLE, ["witness", "degree"], 6),
                                    {"status": "multiple-only", "value": 4})


def test_witness_bound():
    checks.check_witness_bound(BUNDLE, 4)
    with pytest.raises(CheckFailed):
        checks.check_witness_bound(corrupt(BUNDLE, ["witness", "degree"], 2), 4)


def test_witness_type():
    target = {"type": "symplectic"}
    checks.check_witness_type(HAMILTON_FORM, target, BUNDLE)
    with pytest.raises(CheckFailed):
        checks.check_witness_type(HAMILTON_FORM, target,
                                  corrupt(BUNDLE, ["witness", "involution_type"], "orthogonal"))
    with pytest.raises(CheckFailed):
        checks.check_witness_type(HAMILTON_FORM, {"type": "unitary"}, BUNDLE)


def test_replay():
    checks.check_replay(BUNDLE, 0, {"verified": True, "degree": 4, "involution_type": "symplectic"})
    with pytest.raises(CheckFailed):
        checks.check_replay(BUNDLE, 0, {"verified": True, "degree": 2, "involution_type": "symplectic"})
    with pytest.raises(CheckFailed):
        checks.check_replay(BUNDLE, 4, None)


def test_clifford_dims():
    checks.check_clifford_dims(5, 32, 16)
    with pytest.raises(CheckFailed):
        checks.check_clifford_dims(5, 32, 8)


def test_center_dim():
    checks.check_center_dim(5, 1)
    checks.check_center_dim(6, 2)
    with pytest.raises(CheckFailed):
        checks.check_center_dim(6, 1)


def test_involution_type():
    # n = 3: C0 = quaternions, canonical involution symplectic, dim Sym 1
    checks.check_involution_type(3, 4, 1)
    # n = 4: C0 = two quaternion factors, symplectic on each, dim Sym 2
    checks.check_involution_type(4, 8, 2)
    # n = 6: unitary, fixes half of the 32 dimensions
    checks.check_involution_type(6, 32, 16)
    with pytest.raises(CheckFailed):
        checks.check_involution_type(3, 4, 3)
    with pytest.raises(CheckFailed):
        checks.check_involution_type(6, 32, 20)


def test_pair_dim():
    checks.check_pair_dim(4, 8)
    with pytest.raises(CheckFailed):
        checks.check_pair_dim(4, 16)
