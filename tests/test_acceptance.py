"""Acceptance battery: one test per criterion, each with its time budget.

Each criterion is a single test function so the verbose run shows exactly
one pass/fail line per criterion.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import central_etale_split
from cliffcomp.algebra import (
    QuaternionAlgebra,
    center_basis,
    center_structure,
    corner_algebra,
    involution_type,
)
from cliffcomp.brauer import BrauerClass, quaternion_symbol_of, trivial_class
from cliffcomp.clifford import clifford_of_pair, even_clifford, split_compare
from cliffcomp.compose import construct_composition, regular_representation
from cliffcomp.example import quaternionic_even_model
from cliffcomp.mcd import (
    EXACT,
    canonical_involution_type,
    dbound_min_degree,
    lower_bound_first_kind,
    lower_bound_unitary,
    mcd_unitary,
    profile_from_form,
    profile_from_pair_clifford,
)
from cliffcomp.qpair import pair_from_form, pair_on_quaternion_tensor
from cliffcomp.quadform import QuadraticSpace, all_small_forms, random_form
from cliffcomp.scalars import (
    PLACE_REAL,
    EtaleQuadratic,
    Place,
    PrimeField,
    QQ,
    hilbert_symbol,
    hilbert_symbol_bruteforce,
    quad_ext_info,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
HH = BrauerClass(QQ, [(Fraction(-1), Fraction(-1))])
TRIV = trivial_class(QQ)
S_I = EtaleQuadratic(QQ, Fraction(-1), False)
S_SQRT2 = EtaleQuadratic(QQ, Fraction(2), False)
S_SPLIT = EtaleQuadratic(QQ, Fraction(1), True)


def diag(*entries, F=QQ):
    vals = [F.from_int(v) if F.char else Fraction(v) for v in entries]
    return QuadraticSpace.diagonal(F, vals)


def test_ac1_worked_model_three_parameter_pairs():
    """Generator relations, 16-dim involution isomorphism, both composition
    equations exact, for three parameter pairs, under 10s each."""
    for a, b in [(-1, -1), (2, 3), (1, 1)]:
        t0 = time.monotonic()
        rep = quaternionic_even_model(QQ, Fraction(a), Fraction(b))
        assert rep.psi.is_bijective()
        assert rep.M.dim == 16
        assert rep.checks["iso"] and rep.checks["involution_match"]
        assert rep.checks["composes_anti_hermitian"]
        assert rep.checks["composes_hermitian"]
        assert all(rep.checks.values()), (a, b, rep.checks)
        assert rep.minimal_degree == rep.M.deg == 4
        assert time.monotonic() - t0 < 10.0


def test_ac2_tensor_pair_clifford_and_corner_classes():
    """Quaternion tensor pair: dimension-8 Clifford algebra, split center,
    corner classes equal to the two quaternion classes; plus one GF(2)
    instance; under 30s."""
    t0 = time.monotonic()
    Q1 = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    Q2 = QuaternionAlgebra(QQ, Fraction(2), Fraction(5))
    data = clifford_of_pair(pair_on_quaternion_tensor(Q1, Q2))
    assert data.C.dim == 8
    et, e = center_structure(data.C)
    assert et.split and e is not None
    Cp = corner_algebra(data.C, e)
    Cm = corner_algebra(data.C, data.C.one() - e)
    got = [BrauerClass(QQ, [quaternion_symbol_of(Cp)]),
           BrauerClass(QQ, [quaternion_symbol_of(Cm)])]
    want = [BrauerClass(QQ, [(Fraction(-1), Fraction(-1))]),
            BrauerClass(QQ, [(Fraction(2), Fraction(5))])]
    assert (got[0] == want[0] and got[1] == want[1]) or \
           (got[0] == want[1] and got[1] == want[0])

    dg = clifford_of_pair(pair_on_quaternion_tensor(
        QuaternionAlgebra(F2, 1, 1), QuaternionAlgebra(F2, 1, 1)))
    et, e = center_structure(dg.C)
    assert dg.C.dim == 8 and et.split
    Cgp = corner_algebra(dg.C, e)
    assert Cgp.dim == 4  # both corners carry the trivial GF(2) class
    assert time.monotonic() - t0 < 30.0


def test_ac3_even_clifford_dimensions_types_and_split_flags():
    """50 random rational forms in degrees 2..8 plus exhaustive small forms
    over GF(2) and GF(3): dimension, involution-type table (with the
    degree-1 char-2 exception), split flag of the center; under 5min."""
    t0 = time.monotonic()
    rng = random.Random(20260819)
    checked = 0

    def check(q):
        nonlocal checked
        n = q.n
        F = q.F
        C, C0, embed, project, tau = even_clifford(q)
        assert C.dim == 1 << n
        assert C0.dim == 1 << (n - 1)
        cb = center_basis(C0)
        got = involution_type(C0, tau)
        assert got == canonical_involution_type(n, F.char), \
            f"{q.label}: type {got}"
        if n % 2 == 0:
            assert len(cb) == 2
            split_constructed = central_etale_split(C0, cb)
            split_predicted = quad_ext_info(F, q.center_datum()).split
            assert split_constructed == split_predicted, f"{q.label}: split flag"
        else:
            assert len(cb) == 1
        checked += 1

    for n in range(2, 7):
        for _ in range(9):
            check(random_form(QQ, n, rng))
    for _ in range(4):
        check(random_form(QQ, 7, rng))
    check(random_form(QQ, 8, rng))
    assert checked == 50

    for F, n_max in [(F2, 4), (F3, 3)]:
        for n in range(1, n_max + 1):
            for q in all_small_forms(F, n):
                check(q)
    assert checked > 50
    assert time.monotonic() - t0 < 300.0


def test_ac4_metric_axioms_and_hilbert_agreement():
    """200 random 2-torsion classes: metric axioms, translation invariance,
    product formula; Hilbert symbols against the congruence-free oracle for
    |a|, |b| <= 30; under 2min."""
    t0 = time.monotonic()
    rng = random.Random(404)

    def rand_entry():
        v = 0
        while v == 0:
            v = rng.randint(-30, 30)
        return Fraction(v)

    classes = [
        BrauerClass(QQ, [(rand_entry(), rand_entry())
                         for _ in range(rng.randint(0, 3))])
        for _ in range(200)
    ]
    one = trivial_class(QQ)
    for c in classes:
        assert c.distance(c) == 0
        assert len(c.support) % 2 == 0
    for _ in range(150):
        x, y, z = (rng.choice(classes) for _ in range(3))
        assert x.distance(y) == y.distance(x)
        assert x.distance(z) <= x.distance(y) + y.distance(z)
        assert (x.distance(y) == 0) == (x == y)
    for _ in range(100):
        a, b, c = (rng.choice(classes) for _ in range(3))
        assert (a * b).distance(a * c) == b.distance(c)
        assert b.distance(c) == (b * c).distance(one)

    for _ in range(250):
        a, b = rand_entry(), rand_entry()
        places = {PLACE_REAL, Place(2)}
        for v in (a, b):
            m = abs(int(v))
            while m % 2 == 0:
                m //= 2
            d = 3
            while d * d <= m:
                if m % d == 0:
                    places.add(Place(d))
                    while m % d == 0:
                        m //= d
                d += 2
            if m > 2:
                places.add(Place(m))
        for place in places:
            assert hilbert_symbol(a, b, place) == \
                hilbert_symbol_bruteforce(a, b, place), (a, b, place)
    assert time.monotonic() - t0 < 120.0


AC5_FORM_CASES = [
    # (field, entries, request kind, parameters, expected degree)
    (QQ, (1, -1), "first", (TRIV, "orthogonal"), 2),
    (QQ, (1, 1), "first", (HH, "orthogonal"), 2),
    (QQ, (1, 1, 1), "first", (HH, "symplectic"), 2),
    (QQ, (1, 1, 1), "first", (HH, "orthogonal"), 4),
    (QQ, (1, 1, 1), "first", (TRIV, "symplectic"), 4),
    (QQ, (1, 1, 1), "unitary", (S_I, TRIV), 2),
    (QQ, (1, 1, 1), "unitary", (S_SQRT2, TRIV), 4),
    (QQ, (1, 1, 1), "unitary", (S_SPLIT, TRIV), 4),
    (QQ, (1, 1, 1, 1), "first", (HH, "symplectic"), 2),
    (QQ, (1, 1, 1, 1), "first", (TRIV, "symplectic"), 4),
    (QQ, (1, 1, 1, -1), "unitary", (S_I, TRIV), 4),
    (QQ, (1, 1, 1, -1, 1), "first", (HH, "symplectic"), 4),
    (QQ, (1, 1, 1, -1, 1), "first", (HH, "orthogonal"), 8),
    (QQ, (1, 1, -1, 1, -1), "first", (HH, "symplectic"), 8),
    (QQ, (1, 1, 1, 1, 1, 1), "first", (TRIV, "orthogonal"), 8),
    (QQ, (1, 1, 1, 1, 1, 1), "unitary", (S_I, TRIV), 4),
    (QQ, (1, -1, 1, -1, 1, -1), "first", (TRIV, "orthogonal"), 8),
    (QQ, (1, -1, 1, -1, 1, -1), "unitary", (S_SPLIT, TRIV), 4),
    (F3, (1, 1), "first", (None, "orthogonal"), 2),
    (F3, (1, 1, 1), "first", (None, "symplectic"), 2),
    (F3, (1, 1, 1, 1), "first", (None, "symplectic"), 2),
    (F3, (1, 1, 1, 1, 1), "first", (None, "symplectic"), 4),
    (F3, (1, 1, 1, 1, 1, 1), "unitary", ("GF9", None), 4),
]


def _ac5_requests():
    for F, entries, kind, params, deg in AC5_FORM_CASES:
        src = diag(*entries, F=F)
        if kind == "first":
            c, t = params
            req = {"kind": "first", "c": c if c is not None else trivial_class(F),
                   "t": t}
        else:
            S, c0 = params
            if S == "GF9":
                S = EtaleQuadratic(F3, F3.from_int(2), False)
            req = {"kind": "unitary", "S": S,
                   "c0": c0 if c0 is not None else trivial_class(F)}
        yield src, req, deg, profile_from_form(src)
    Qa = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    Qb = QuaternionAlgebra(QQ, Fraction(2), Fraction(5))
    for Q2, c, deg in [(Qb, TRIV, 4), (Qb, HH, 2), (Qa, TRIV, 4)]:
        data = clifford_of_pair(pair_on_quaternion_tensor(Qa, Q2))
        yield (data, {"kind": "first", "c": c, "t": "symplectic"}, deg,
               profile_from_pair_clifford(data))
    qg = QuadraticSpace(F2, [[1, 1], [0, 1]])
    yield (qg, {"kind": "unitary", "S": EtaleQuadratic(F2, 1, False),
                "c0": trivial_class(F2)}, 1, profile_from_form(qg))


def test_ac5_formula_values_with_certified_witnesses():
    """At least 20 cases spanning degrees 2..6 over Q and GF(3), quaternion
    tensor pairs, and unitary data Q(i), Q(sqrt 2), Q x Q: witness at the
    formula value, full certificate, admissibility, lower-bound coherence;
    under 10min."""
    t0 = time.monotonic()
    count = 0
    for src, req, deg, prof in _ac5_requests():
        wit = construct_composition(src, req)
        assert wit.degree == deg, f"case {count}: degree {wit.degree} != {deg}"
        assert wit.expected.status == EXACT
        assert wit.expected.value == deg
        checks = wit.verify()
        assert checks["algebra_hom"] and checks["intertwines"]
        assert checks["admissible"]
        if req["kind"] == "first":
            rep = lower_bound_first_kind(prof, req["c"], req["t"])
        else:
            rep = lower_bound_unitary(prof, req["S"], req["c0"])
        assert rep.value <= deg
        if rep.equality:
            assert rep.value == deg, f"case {count}: bound {rep.value} < {deg}"
            assert rep.condition
        count += 1
    assert count >= 20
    assert time.monotonic() - t0 < 600.0


def test_ac6_distance_bound_realized_by_regular_representation():
    """The quaternion-to-trivial bound is 4, realized by the regular
    representation and minimal among admissible degrees; under 5s."""
    t0 = time.monotonic()
    assert dbound_min_degree(2, HH, TRIV) == 4
    H = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    rep = regular_representation(H)
    assert rep.B.deg == 4
    rep.verify()
    assert rep.is_injective()
    # any trivial-class target hosting H has degree divisible by 2 * 2^d
    block = 2 << HH.distance(TRIV)
    assert block == 4
    for smaller in range(1, 4):
        assert smaller % block != 0
    assert time.monotonic() - t0 < 5.0


def test_ac7_pair_clifford_matches_even_clifford():
    """The pair construction reproduces the even Clifford algebra with its
    involution on 30 regular forms of dimensions 2 and 4 over Q, GF(3),
    GF(2); under 5min."""
    t0 = time.monotonic()
    forms = [
        diag(1, 1), diag(1, -1), diag(2, 5), diag(1, 3), diag(-2, 7),
        QuadraticSpace(QQ, [[Fraction(1), Fraction(3)], [Fraction(0), Fraction(-2)]]),
        diag(1, 1, 1, 1), diag(1, 2, -3, 5), diag(1, 1, 1, -1),
        diag(2, 3, 5, 7), diag(1, -1, 1, -1),
        diag(1, 1, F=F3), diag(1, 2, F=F3), diag(2, 2, F=F3),
        diag(2, 1, F=F3),
        QuadraticSpace(F3, [[1, 1], [0, 2]]),
        QuadraticSpace(F3, [[2, 1], [0, 1]]),
        diag(1, 1, 1, 1, F=F3), diag(1, 1, 1, 2, F=F3),
        diag(1, 2, 1, 2, F=F3), diag(2, 2, 2, 2, F=F3),
    ]
    forms.extend(q for q in all_small_forms(F2, 2) if q.regularity() == "regular")
    gf2_quads = [q for q in all_small_forms(F2, 4) if q.regularity() == "regular"]
    forms.extend(gf2_quads[:5])
    assert len(forms) >= 30
    for q in forms:
        pair, aux = pair_from_form(q)
        data = clifford_of_pair(pair)
        assert data.C.dim == 1 << (q.n - 1)
        phi, C0, tau = split_compare(data, aux)  # raises unless the
        assert phi.is_bijective()                # involutions correspond
    assert time.monotonic() - t0 < 300.0


def test_ac8_exclusions_exit_3_and_split_field_route():
    """Excluded unitary configurations exit with code 3 from the CLI; the
    matching-field-center route returns 2^(2k+d) with a verified witness;
    under 1min."""
    t0 = time.monotonic()
    base = [sys.executable, "-m", "cliffcomp.cli"]
    p = subprocess.run(
        base + ["mcd", "--object", '{"diag":["1","-1","1","-1","1","-1"]}',
                "--type", "unitary", "--s", '{"datum":"2"}'],
        capture_output=True, text=True, timeout=60)
    assert p.returncode == 3
    assert json.loads(p.stderr)["error"] == "not-covered"
    p2 = subprocess.run(
        base + ["compose", "--object", '{"diag":["1","-1"]}',
                "--type", "unitary", "--s", '{"datum":"-1"}'],
        capture_output=True, text=True, timeout=60)
    assert p2.returncode == 3

    q4 = diag(1, 1, 1, -1)
    prof = profile_from_form(q4)
    res = mcd_unitary(prof, S_I, TRIV)
    assert res.status == EXACT and "route" in res.case
    k, d = 1, 0
    assert res.value == 1 << (2 * k + d) == 4
    wit = construct_composition(q4, {"kind": "unitary", "S": S_I, "c0": TRIV})
    assert wit.degree == 4
    wit.verify()
    assert time.monotonic() - t0 < 60.0
