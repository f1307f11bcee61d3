"""Degree formulas: profiles, exact values, bounds, admissibility."""

from fractions import Fraction

import pytest

from cliffcomp.algebra import QuaternionAlgebra
from cliffcomp.brauer import BrauerClass, trivial_class
from cliffcomp.clifford import clifford_of_pair
from cliffcomp.errors import UnsupportedInputError
from cliffcomp.mcd import (
    EXACT,
    MULTIPLE,
    NOT_COVERED,
    admissible_degree,
    canonical_involution_type,
    dbound_min_degree,
    distance_over as _d_res,
    lower_bound_first_kind,
    lower_bound_unitary,
    mcd_first_kind,
    mcd_unitary,
    profile_from_form,
    profile_from_pair_clifford,
)
from cliffcomp.qpair import pair_on_quaternion_tensor
from cliffcomp.quadform import QuadraticSpace
from cliffcomp.scalars import QQ, EtaleQuadratic, PrimeField, squarefree_part

F3 = PrimeField(3)
HH = BrauerClass(QQ, [(Fraction(-1), Fraction(-1))])
TRIV = trivial_class(QQ)
S_I = EtaleQuadratic(QQ, Fraction(-1), False)
S_SQRT2 = EtaleQuadratic(QQ, Fraction(2), False)
S_SPLIT = EtaleQuadratic(QQ, Fraction(1), True)


def diag(*entries, F=QQ):
    vals = [F.from_int(v) if F.char else Fraction(v) for v in entries]
    return QuadraticSpace.diagonal(F, vals)


@pytest.mark.parametrize(
    "n,char,expected",
    [
        (5, 0, "symplectic"),
        (4, 0, "symplectic"),
        (8, 0, "orthogonal"),
        (6, 0, "unitary"),
        (7, 0, "orthogonal"),
        (1, 0, "orthogonal"),
        (3, 2, "symplectic"),
        (1, 2, "orthogonal"),
        (4, 2, "symplectic"),
        (2, 3, "unitary"),
    ],
)
def test_canonical_involution_type_table(n, char, expected):
    assert canonical_involution_type(n, char) == expected


def test_profile_odd_degree():
    p = profile_from_form(diag(1, 1, 1, -1, 1))
    assert p.n == 5 and p.t_C == "symplectic"
    assert p.c_odd == HH
    assert p.deg_clifford() == 4


def test_profile_even_degree_split_and_field():
    p4 = profile_from_form(diag(1, 1, 1, 1))
    assert p4.z_split and p4.c_plus == HH and p4.c_minus == HH
    p4f = profile_from_form(diag(1, 1, 1, -1))
    assert not p4f.z_split and p4f.c_base is not None


def test_profile_center_types():
    p6 = profile_from_form(diag(*([1] * 6)))
    assert p6.t_C == "unitary" and not p6.z_split
    assert profile_from_form(diag(1, 1, 1, F=F3)).t_C == "symplectic"


def test_profile_rejects_degenerate():
    with pytest.raises(UnsupportedInputError):
        profile_from_form(diag(1, 0, 1))


@pytest.mark.parametrize(
    "entries,c,t,value,status",
    [
        ((1, 1, 1, -1, 1), "HH", "symplectic", 4, EXACT),
        ((1, 1, 1, -1, 1), "HH", "orthogonal", 8, EXACT),
        ((1, 1, -1, 1, -1), "HH", "symplectic", 8, EXACT),
        ((1, 1, 1), "HH", "symplectic", 2, EXACT),
        ((1, 1, 1), "TRIV", "symplectic", 4, EXACT),
        ((1, 1, 1, 1), "HH", "symplectic", 2, EXACT),
        ((1, 1, 1, 1), "TRIV", "symplectic", 4, EXACT),
        ((1, 1, 1, 1, 1, 1), "TRIV", "symplectic", 8, EXACT),
    ],
)
def test_mcd_first_kind_values(entries, c, t, value, status):
    target = HH if c == "HH" else TRIV
    res = mcd_first_kind(profile_from_form(diag(*entries)), target, t)
    assert res.value == value and res.status == status


def test_mcd_first_kind_field_center_multiple_only():
    res = mcd_first_kind(profile_from_form(diag(1, 1, 1, -1)), HH, "symplectic")
    assert res.status == MULTIPLE
    assert res.divisibility


def test_mcd_first_kind_gf3():
    res = mcd_first_kind(profile_from_form(diag(1, 1, 1, F=F3)), trivial_class(F3),
                         "symplectic")
    assert res.value == 2 and res.status == EXACT


@pytest.mark.parametrize(
    "entries,S,c0,value,status",
    [
        ((1, 1, 1), "I", "TRIV", 2, EXACT),
        ((1, 1, 1), "SQRT2", "TRIV", 4, EXACT),
        ((1, 1, 1), "SPLIT", "TRIV", 4, EXACT),
        ((1, 1, 1, 1, 1, 1), "I", "TRIV", 4, EXACT),
        ((1, -1), "SPLIT", "TRIV", 1, EXACT),
    ],
)
def test_mcd_unitary_values(entries, S, c0, value, status):
    Ss = {"I": S_I, "SQRT2": S_SQRT2, "SPLIT": S_SPLIT}[S]
    res = mcd_unitary(profile_from_form(diag(*entries)), Ss, TRIV)
    assert res.value == value and res.status == status


def test_mcd_unitary_compositum_multiple_only():
    res = mcd_unitary(profile_from_form(diag(*([1] * 6))), S_SQRT2, TRIV)
    assert res.status == MULTIPLE


# reference: the former distance through an explicit compositum, a tuple of
# squarefree data with repeated fields dropped, over which both classes are
# restricted and their supports compared

def ref_d_res(c1, c2, *fields):
    data = []
    for et in fields:
        m = squarefree_part(et.datum)
        if m not in data:
            data.append(m)

    def restricted_support(c):
        return {v for v in c.support
                if all(EtaleQuadratic(QQ, Fraction(m), False).place_behavior(v) == "split"
                       for m in data)}

    return 0 if restricted_support(c1) == restricted_support(c2) else 1


def test_d_res_matches_the_compositum_reference():
    symbols = [[], [(-1, -1)], [(2, 5)], [(-1, 3)], [(3, 7)], [(-2, 5)], [(5, -7)],
               [(-1, -1), (2, 5)], [(2, -3)], [(11, -1)], [(-1, -1), (3, 7)]]
    classes = [BrauerClass(QQ, [(Fraction(a), Fraction(b)) for a, b in s]) for s in symbols]
    data = (-1, 2, -2, 3, -3, 5, -7, 6, 17, 8, -4, 18)
    fields = [EtaleQuadratic(QQ, Fraction(m), False) for m in data]
    bases = [()] + [(f,) for f in fields]
    bases += [(f, g) for f in fields for g in fields]  # distinct and repeated fields
    hits = 0
    for c1 in classes:
        for c2 in classes:
            for base in bases:
                d = _d_res(QQ, c1, c2, *base)
                assert d == ref_d_res(c1, c2, *base), (c1, c2, base)
                hits += d
    assert hits  # not every pair collapses
    assert _d_res(F3, trivial_class(F3), BrauerClass(F3, [(1, 2)])) == 0


def test_split_fields_leave_the_distance_unchanged():
    # a split S splits every place, so it neither restricts nor adds a field
    split = EtaleQuadratic(QQ, Fraction(1), True)
    z = EtaleQuadratic(QQ, Fraction(-1), False)
    symbols = [[], [(-1, -1)], [(2, 5)], [(3, 7)], [(-1, -1), (2, 5)]]
    classes = [BrauerClass(QQ, [(Fraction(a), Fraction(b)) for a, b in s]) for s in symbols]
    for c1 in classes:
        for c2 in classes:
            assert _d_res(QQ, c1, c2, split) == _d_res(QQ, c1, c2)
            assert _d_res(QQ, c1, c2, z, split) == _d_res(QQ, c1, c2, z)


def test_mcd_unitary_excluded_case():
    # split center, S a field: outside the covered constructions
    res = mcd_unitary(profile_from_form(diag(1, -1)), S_I, TRIV)
    assert res.status == NOT_COVERED
    assert res.value is None


def test_mcd_unitary_field_center_matching_s():
    p4 = profile_from_form(diag(1, 1, 1, -1))  # center Q(i)
    res = mcd_unitary(p4, S_I, TRIV)
    assert res.status == EXACT and "route" in res.case


def test_pair_profile_and_mcd():
    Q1 = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    Q2 = QuaternionAlgebra(QQ, Fraction(2), Fraction(5))
    data = clifford_of_pair(pair_on_quaternion_tensor(Q1, Q2))
    pp = profile_from_pair_clifford(data)
    assert pp.n == 4 and pp.z_split and pp.source == "pair"
    assert {pp.c_plus, pp.c_minus} == \
        {BrauerClass(QQ, [(Fraction(-1), Fraction(-1))]),
         BrauerClass(QQ, [(Fraction(2), Fraction(5))])}
    res = mcd_first_kind(pp, TRIV, "symplectic")
    assert res.value == 4 and res.status == EXACT


def test_mcd_unitary_pair_source_split_center_field_s():
    # a degree-4k source with split center is covered for a field S too
    Q1 = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    Q2 = QuaternionAlgebra(QQ, Fraction(2), Fraction(5))
    pp = profile_from_pair_clifford(clifford_of_pair(pair_on_quaternion_tensor(Q1, Q2)))
    res = mcd_unitary(pp, EtaleQuadratic(QQ, Fraction(3), False), TRIV)
    assert res.status == EXACT


def test_lower_bound_equality_flags():
    p1 = profile_from_form(diag(1, 1, 1, -1, 1))
    b = lower_bound_first_kind(p1, HH, "symplectic")
    assert b.value == 4 and b.equality
    b2 = lower_bound_first_kind(p1, HH, "orthogonal")
    assert b2.value == 8 and b2.equality
    p6 = profile_from_form(diag(*([1] * 6)))
    b3 = lower_bound_unitary(p6, S_I, TRIV)
    assert b3.value == 4 and b3.equality
    p4f = profile_from_form(diag(1, 1, 1, -1))
    b4 = lower_bound_first_kind(p4f, TRIV, "symplectic")
    assert not b4.equality  # equality certified only for split centers


def test_lower_bound_never_exceeds_exact_value():
    cases = [
        (diag(1, 1, 1), HH, "symplectic"),
        (diag(1, 1, 1, -1, 1), HH, "orthogonal"),
        (diag(1, 1, 1, 1), TRIV, "symplectic"),
        (diag(1, 1, -1, 1, -1), HH, "symplectic"),
    ]
    for q, c, t in cases:
        p = profile_from_form(q)
        res = mcd_first_kind(p, c, t)
        assert lower_bound_first_kind(p, c, t).value <= res.value


@pytest.mark.parametrize(
    "degree,ok",
    [(4, True), (6, False), (8, True), (5, False), (16, True)],
)
def test_admissible_degrees_odd_profile(degree, ok):
    p1 = profile_from_form(diag(1, 1, 1, -1, 1))
    out = admissible_degree(p1, {"kind": "first", "c": HH, "t": "symplectic"}, degree)
    assert out["ok"] == ok


def test_admissible_degree_field_center_parity():
    p6 = profile_from_form(diag(*([1] * 6)))
    req = {"kind": "first", "c": TRIV, "t": "symplectic"}
    assert admissible_degree(p6, req, 8)["ok"]
    assert not admissible_degree(p6, req, 4)["ok"]
    # 12 = 3 * 4 needs an odd outer factor: a field center forces it even
    assert not admissible_degree(p6, req, 12)["ok"]


def test_admissible_degree_split_center_mixes_terms():
    Q1 = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    Q2 = QuaternionAlgebra(QQ, Fraction(2), Fraction(5))
    pp = profile_from_pair_clifford(clifford_of_pair(pair_on_quaternion_tensor(Q1, Q2)))
    out = admissible_degree(pp, {"kind": "first", "c": TRIV, "t": "symplectic"}, 12)
    assert out["ok"]  # 12 = 2 * (1 * 2 + 2 * 2): two-term split form


def test_admissible_degree_split_split_unitary():
    # product target: each factor absorbs one corner, degrees do not add
    p2 = profile_from_form(diag(1, -1))
    out = admissible_degree(
        p2, {"kind": "unitary", "S": S_SPLIT, "c0": TRIV}, 1
    )
    assert out["ok"] and out["case"] == "cbound/split-center-split-S"


def test_dbound():
    assert dbound_min_degree(2, HH, TRIV) == 4
    assert dbound_min_degree(2, HH, HH) == 2
    assert dbound_min_degree(4, TRIV, HH) == 8


def test_scale_invariance_of_results():
    q1 = diag(1, 1, 1, -1, 1)
    q6 = diag(*([1] * 6))
    base1 = mcd_first_kind(profile_from_form(q1), HH, "symplectic").to_json()
    base6 = mcd_unitary(profile_from_form(q6), S_I, TRIV).to_json()
    for lam in [Fraction(2), Fraction(-3), Fraction(5, 7)]:
        p1 = profile_from_form(q1.scale(lam))
        assert mcd_first_kind(p1, HH, "symplectic").to_json() == base1
        p6 = profile_from_form(q6.scale(lam))
        assert mcd_unitary(p6, S_I, TRIV).to_json() == base6
