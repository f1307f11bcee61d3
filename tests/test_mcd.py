"""Degree formulas: profiles, exact values, bounds, admissibility."""

import itertools
import json
from fractions import Fraction
from typing import Optional

import pytest

from cliffcomp.algebra import QuaternionAlgebra
from cliffcomp.brauer import BrauerClass, trivial_class
from cliffcomp.clifford import clifford_of_pair
from cliffcomp.errors import UnsupportedInputError
from cliffcomp.mcd import (
    EXACT,
    MULTIPLE,
    NOT_COVERED,
    ORTH,
    SYMP,
    BoundReport,
    InvariantProfile,
    McdResult,
    admissible_degree,
    canonical_involution_type,
    classify,
    dbound_min_degree,
    distance_over as _d_res,
    lower_bound_first_kind,
    lower_bound_unitary,
    mcd_first_kind,
    mcd_unitary,
    profile_from_form,
    profile_from_pair_clifford,
    _two_term_form,
)
from cliffcomp.qpair import pair_on_quaternion_tensor
from cliffcomp.quadform import QuadraticSpace
from cliffcomp.scalars import QQ, EtaleQuadratic, PrimeField, quad_ext_info, squarefree_part

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


# ---------------------------------------------------------------------------
# reference: the five dispatch functions that the case table replaced, as
# they were, each redoing the n mod 4 / center / S branching.  The readers
# must give the same JSON, and raise the same exception type, on a
# synthetic grid of profiles and requests.

def ref_d_split_pair(c: BrauerClass, cp: BrauerClass, cm: BrauerClass) -> int:
    """d over F x F between (c, c) and (cp, cm): log2 of an lcm of indices."""
    return max(c.distance(cp), c.distance(cm))


def ref_mcd_first_kind(profile: InvariantProfile, c: BrauerClass, t: str) -> McdResult:
    """Minimal composition degree for first-kind targets of type t."""
    if t not in (ORTH, SYMP):
        raise ValueError("first-kind type must be orthogonal or symplectic")
    if c.F != profile.F:
        raise UnsupportedInputError("target class must live over the base field")
    F = profile.F
    n = profile.n
    # in characteristic 2 the two first-kind types coincide as target types
    eps = 0 if (profile.t_C == t or F.char == 2) else 1

    if n % 2:
        k = (n - 1) // 2
        d = c.distance(profile.c_odd)
        delta = 1 if (profile.c_odd == c and eps == 1) else 0
        return McdResult(EXACT, k + d + delta, "first-kind/odd", True)

    if n % 4 == 0:
        k = n // 4
        if profile.z_split:
            dmin = min(c.distance(profile.c_plus), c.distance(profile.c_minus))
            hit = profile.c_plus == c or profile.c_minus == c
            delta = 1 if (hit and eps == 1) else 0
            return McdResult(EXACT, 2 * k - 1 + dmin + delta, "first-kind/4k/split-center", False)
        d = _d_res(F, c, profile.c_base, profile.z_etale)
        delta = 1 if (d == 0 and eps == 1) else 0
        return McdResult(MULTIPLE, 2 * k + d + delta, "first-kind/4k/field-center", True)

    # n = 4k + 2
    k = (n - 2) // 4
    if profile.z_split:
        d = ref_d_split_pair(c, profile.c_plus, profile.c_minus)
    else:
        d = _d_res(F, c, profile.c_base, profile.z_etale)
    return McdResult(EXACT, 2 * k + 1 + d, "first-kind/4k+2", False)


def ref_mcd_unitary(profile: InvariantProfile, S: EtaleQuadratic, c0: BrauerClass) -> McdResult:
    """Minimal composition degree for unitary targets over S.

    c0 is the class over the base field whose restriction to S is the
    target class; over split S this means the pair (c0, c0).  Restricted
    classes are norm-trivial automatically (corestriction of a
    restriction is the square).
    """
    if S.field != profile.F or c0.F != profile.F:
        raise UnsupportedInputError("S and the class must live over the base field")
    F = profile.F
    n = profile.n

    if n % 2:
        k = (n - 1) // 2
        return McdResult(EXACT, k + _d_res(F, c0, profile.c_odd, S), "unitary/odd", True)

    if n % 4 == 0:
        k = n // 4
        if profile.z_split:
            dmin = min(_d_res(F, c0, profile.c_plus, S),
                       _d_res(F, c0, profile.c_minus, S))
            return McdResult(EXACT, 2 * k - 1 + dmin, "unitary/4k/split-center", False)
        # Z a field
        if not S.split and profile.z_etale.is_isomorphic(S):
            if profile.source == "form":
                d = _d_res(F, c0, profile.c_base, S)
                return McdResult(
                    EXACT,
                    2 * k + d,
                    "unitary/4k/center-matches-S/split-field-route",
                    False,
                    note="full-Clifford embedding route for trivial algebras",
                )
            return McdResult(
                NOT_COVERED,
                None,
                "unitary/4k/center-matches-S",
                False,
                note="center of C isomorphic to S as fields; covered only for trivial algebras",
            )
        d = _d_res(F, c0, profile.c_base, profile.z_etale, S)
        return McdResult(MULTIPLE, 2 * k + d, "unitary/4k/field-center", True)

    # n = 4k + 2
    k = (n - 2) // 4
    if profile.z_etale.is_isomorphic(S):
        if profile.z_split:
            d = ref_d_split_pair(c0, profile.c_plus, profile.c_minus)
        else:
            d = _d_res(F, c0, profile.c_base, S)
        # the opposite class coincides with the class itself at 2-torsion,
        # so the min over {C, op C} collapses
        return McdResult(EXACT, 2 * k + d, "unitary/4k+2/center-matches-S", False)
    if profile.z_split:
        return McdResult(
            NOT_COVERED,
            None,
            "unitary/4k+2/split-center-field-S",
            False,
            note="split center with a field S is not covered",
        )
    d = _d_res(F, c0, profile.c_base, profile.z_etale, S)
    return McdResult(MULTIPLE, 2 * k + 1 + d, "unitary/4k+2/field-center", True)


def ref_lower_bound_first_kind(profile: InvariantProfile, c: BrauerClass, t: str) -> BoundReport:
    n = profile.n
    # delta = 1 when the canonical involution is NOT of type t: the bound
    # must match the degree formulas (type t reachable directly keeps the
    # base bound; a type switch costs one factor of 2)
    delta = 0 if (profile.t_C == t or profile.F.char == 2) else 1
    if n % 2:
        k = (n - 1) // 2
        if delta == 0:
            eq = profile.c_odd == c
            cond = "class of C equals the target class"
        else:
            eq = c.distance(profile.c_odd) <= 1
            cond = "target class is C twisted by a quaternion class"
        return BoundReport(k + delta, eq, "bound/first-kind/odd", cond)
    if n % 4 == 0:
        k = n // 4
        if delta == 0:
            eq = profile.z_split and (profile.c_plus == c or profile.c_minus == c)
            cond = "center splits and a factor class equals the target"
        else:
            eq = profile.z_split and min(
                c.distance(profile.c_plus), c.distance(profile.c_minus)
            ) <= 1
            cond = "center splits and a factor class is a quaternion twist of the target"
        return BoundReport(2 * k - 1 + delta, eq, "bound/first-kind/4k", cond)
    k = (n - 2) // 4
    if profile.z_split:
        d = ref_d_split_pair(c, profile.c_plus, profile.c_minus)
    else:
        d = _d_res(profile.F, c, profile.c_base, profile.z_etale)
    return BoundReport(
        2 * k + 1, d == 0, "bound/first-kind/4k+2", "class of C over Z equals the restricted target"
    )


def ref_lower_bound_unitary(profile: InvariantProfile, S: EtaleQuadratic, c0: BrauerClass) -> BoundReport:
    F = profile.F
    n = profile.n

    if n % 2:
        k = (n - 1) // 2
        eq = _d_res(F, c0, profile.c_odd, S) == 0
        return BoundReport(k, eq, "bound/unitary/odd", "restriction of C matches the target")
    if n % 4 == 0:
        k = n // 4
        eq = profile.z_split and (
            min(_d_res(F, c0, profile.c_plus, S),
                _d_res(F, c0, profile.c_minus, S)) == 0
        )
        return BoundReport(
            2 * k - 1, eq, "bound/unitary/4k", "center splits and a factor restricts to the target"
        )
    k = (n - 2) // 4
    if profile.z_etale.is_isomorphic(S):
        if profile.z_split:
            d = ref_d_split_pair(c0, profile.c_plus, profile.c_minus)
        else:
            d = _d_res(F, c0, profile.c_base, S)
        eq = d == 0
    else:
        eq = False
    return BoundReport(
        2 * k, eq, "bound/unitary/4k+2", "Z isomorphic to S and class of C equals the target"
    )


def ref_two_term_form(degree: int, unit: int, d1: int, d2: int, lo1: int, lo2: int) -> Optional[tuple]:
    """Solve degree = unit * (n1 * 2^d1 + n2 * 2^d2), n1 >= lo1, n2 >= lo2,
    n1 + n2 >= 1.  Returns (n1, n2) or None."""
    if degree % unit:
        return None
    rest = degree // unit
    n1 = lo1
    while n1 * (1 << d1) <= rest:
        rem = rest - n1 * (1 << d1)
        if rem % (1 << d2) == 0:
            n2 = rem >> d2
            if n2 >= lo2 and n1 + n2 >= 1:
                return (n1, n2)
        n1 += 1
    return None


def test_two_term_form_scans_one_period_and_matches_the_full_loop():
    # the first solution, if any, has n1 < lo1 + 2^d2
    for unit, d1, d2, lo1, lo2 in itertools.product((1, 2, 4, 8), range(4), range(4), (0, 1), (0, 1)):
        for degree in range(1, 130):
            assert _two_term_form(degree, unit, d1, d2, lo1, lo2) == \
                ref_two_term_form(degree, unit, d1, d2, lo1, lo2), (degree, unit, d1, d2, lo1, lo2)


def ref_admissible_degree(profile: InvariantProfile, request: dict, degree: int) -> dict:
    """Check a candidate target degree against the arithmetic form every
    composition degree must have in the matching configuration.

    request: {"kind": "first", "c": BrauerClass, "t": str} or
             {"kind": "unitary", "S": EtaleQuadratic, "c0": BrauerClass}.
    Returns {"ok": bool, "case": str, "params": ...}.
    """
    if degree < 1:
        return {"ok": False, "case": "degenerate", "params": None}
    F = profile.F
    n = profile.n
    degC = profile.deg_clifford()

    if request["kind"] == "first":
        c, t = request["c"], request["t"]
        eps = 0 if (profile.t_C == t or F.char == 2) else 1
        if n % 2:
            d = c.distance(profile.c_odd)
            need_even = profile.c_odd == c and eps == 1
            unit = degC << d
            ok = degree % unit == 0 and (not need_even or (degree // unit) % 2 == 0)
            return {"ok": ok, "case": "cbound/Z-trivial", "params": {"unit": unit, "even": need_even}}
        if n % 4 == 0:
            if profile.z_split:
                d1 = c.distance(profile.c_plus)
                d2 = c.distance(profile.c_minus)
                sol = ref_two_term_form(degree, degC, d1, d2, 0, 0)
                return {"ok": sol is not None, "case": "cbound/split-center", "params": sol}
            d = _d_res(F, c, profile.c_base, profile.z_etale)
            need_even = d == 0 and eps == 1
            unit = degC << (d + 1)
            ok = degree % unit == 0 and (not need_even or (degree // unit) % 2 == 0)
            return {"ok": ok, "case": "cbound/field-center", "params": {"unit": unit, "even": need_even}}
        # 4k + 2: injectivity forces both-corner terms when the center splits
        if profile.z_split:
            d1 = c.distance(profile.c_plus)
            d2 = c.distance(profile.c_minus)
            sol = ref_two_term_form(degree, degC, d1, d2, 1, 1)
            return {"ok": sol is not None, "case": "cbound/split-center-injective", "params": sol}
        d = _d_res(F, c, profile.c_base, profile.z_etale)
        unit = degC << (d + 1)
        return {
            "ok": degree % unit == 0,
            "case": "cbound/field-center",
            "params": {"unit": unit},
        }

    S, c0 = request["S"], request["c0"]

    if n % 2:
        unit = degC << _d_res(F, c0, profile.c_odd, S)
        return {"ok": degree % unit == 0, "case": "cbound/Z-trivial", "params": {"unit": unit}}
    if profile.z_split:
        d1 = _d_res(F, c0, profile.c_plus, S)
        d2 = _d_res(F, c0, profile.c_minus, S)
        lo = 1 if n % 4 == 2 else 0
        if lo and S.split:
            # split target center: the two product factors can absorb one
            # corner each, so each corner needs a term in some factor rather
            # than both inside one
            ok = (
                ref_two_term_form(degree, degC, d1, d2, 1, 0) is not None
                and ref_two_term_form(degree, degC, d1, d2, 0, 1) is not None
            )
            return {"ok": ok, "case": "cbound/split-center-split-S", "params": (d1, d2)}
        sol = ref_two_term_form(degree, degC, d1, d2, lo, lo)
        case = "cbound/split-center" + ("-injective" if lo else "")
        return {"ok": sol is not None, "case": case, "params": sol}
    if not S.split and profile.z_etale.is_isomorphic(S):
        d = _d_res(F, c0, profile.c_base, S)
        lo = 1 if n % 4 == 0 else 0  # kind mismatch on centers forces both terms
        sol = ref_two_term_form(degree, degC, d, d, lo, lo)
        return {"ok": sol is not None, "case": "cbound/center-matches-S", "params": sol}
    d = _d_res(F, c0, profile.c_base, profile.z_etale, S)
    unit = degC << (d + 1)
    return {"ok": degree % unit == 0, "case": "cbound/compositum", "params": {"unit": unit}}


F2 = PrimeField(2)
GRID_DEGREES = range(1, 33)


def _q(v):
    return Fraction(v)


def grid_fields():
    """(field, classes, centers Z, algebras S): over Q, classes ramified at
    inf and 2, at 2 and 5, or nowhere; S matching a field Z as (-1) and
    (-4) do, or giving a compositum with it."""
    q_split = EtaleQuadratic(QQ, Fraction(1), True)
    q_fields = [quad_ext_info(QQ, _q(m)) for m in (-1, 2, -4)]
    classes = [TRIV, HH, BrauerClass(QQ, [(_q(2), _q(5))])]
    yield QQ, classes, [q_split] + q_fields[:2], [q_split] + q_fields
    for F, datum in ((F3, 2), (F2, 1)):
        split, field = EtaleQuadratic(F, F.one(), True), quad_ext_info(F, datum)
        assert not field.split
        yield F, [trivial_class(F)], [split, field], [split, field]


def grid_profiles(F, classes, centers):
    for n in range(1, 11):
        t_C = canonical_involution_type(n, F.char)
        for source in ("form", "pair"):
            if n % 2:
                for c in classes:
                    yield InvariantProfile(F, n, EtaleQuadratic(F, F.one(), True), t_C, source,
                                           c_odd=c)
                continue
            for Z in centers:
                if Z.split:
                    for cp, cm in itertools.product(classes, repeat=2):
                        yield InvariantProfile(F, n, Z, t_C, source, c_plus=cp, c_minus=cm)
                else:
                    for c in classes:
                        yield InvariantProfile(F, n, Z, t_C, source, c_base=c)


def grid_requests(F, classes, algebras):
    for c in classes:
        for t in (ORTH, SYMP):
            yield {"kind": "first", "c": c, "t": t}
        for S in algebras:
            yield {"kind": "unitary", "S": S, "c0": c}
    # malformed: a second-kind type, a class or an S over another field
    other = F3 if F is QQ else QQ
    yield {"kind": "first", "c": classes[0], "t": "unitary"}
    yield {"kind": "first", "c": trivial_class(other), "t": SYMP}
    yield {"kind": "unitary", "S": EtaleQuadratic(other, other.one(), True), "c0": classes[0]}


def _outcome(fn, *args):
    """The JSON text of a result, or the type of the exception raised."""
    try:
        out = fn(*args)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e)
    return json.dumps(out.to_json() if hasattr(out, "to_json") else out)


def test_readers_match_the_reference_dispatch_on_a_profile_grid():
    pairs = 0
    for F, classes, centers, algebras in grid_fields():
        for prof in grid_profiles(F, classes, centers):
            for req in grid_requests(F, classes, algebras):
                if req["kind"] == "first":
                    args = (prof, req["c"], req["t"])
                    readers = ((mcd_first_kind, ref_mcd_first_kind),
                               (lower_bound_first_kind, ref_lower_bound_first_kind))
                else:
                    args = (prof, req["S"], req["c0"])
                    readers = ((mcd_unitary, ref_mcd_unitary),
                               (lower_bound_unitary, ref_lower_bound_unitary))
                want = _outcome(readers[0][1], *args)
                if isinstance(want, type):
                    # a malformed request: every reader raises the formula's error
                    for new, _ in readers:
                        assert _outcome(new, *args) is want, (prof, req)
                    assert _outcome(admissible_degree, prof, req, 4) is want, (prof, req)
                    continue
                for new, ref in readers:
                    assert _outcome(new, *args) == _outcome(ref, *args), (prof, req)
                for degree in GRID_DEGREES:
                    assert (_outcome(admissible_degree, prof, req, degree)
                            == _outcome(ref_admissible_degree, prof, req, degree)), (prof, req, degree)
                pairs += 1
    assert pairs > 3000


def test_a_classified_request_answers_like_the_readers():
    p6 = profile_from_form(diag(1, -1, 1, -1, 1, -1))
    req = {"kind": "unitary", "S": S_SPLIT, "c0": HH}
    case = classify(p6, req)
    assert case.mcd.to_json() == mcd_unitary(p6, S_SPLIT, HH).to_json()
    assert case.bound.to_json() == lower_bound_unitary(p6, S_SPLIT, HH).to_json()
    for degree in (0, 1, 2, 3, 4, 6, 8):
        assert case.admissible(degree) == admissible_degree(p6, req, degree)
    assert case.admissible(0) == {"ok": False, "case": "degenerate", "params": None}

