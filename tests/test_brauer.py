"""2-torsion classes: supports, the constant metric, restriction, recovery."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import recording_homs, ref_hom_on_generators

from cliffcomp import brauer
from cliffcomp.algebra import ExplicitAlgebra, FieldAlgebra, ProductAlgebra, QuaternionAlgebra
from cliffcomp.brauer import (
    BrauerClass,
    clifford_class_of_form,
    even_clifford_classes,
    quaternion_model,
    quaternion_symbol_of,
    trivial_class,
)
from cliffcomp.errors import CertificationError, UnsupportedInputError
from cliffcomp.linalg import solve
from cliffcomp.quadform import QuadraticSpace
from cliffcomp.scalars import (
    PLACE_REAL,
    EtaleQuadratic,
    ExtField,
    Place,
    PrimeField,
    QQ,
    hilbert_symbol,
    hilbert_symbol_bruteforce,
    relevant_places,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F4 = ExtField(2, 2)


def cls(*symbols):
    return BrauerClass(QQ, [(Fraction(a), Fraction(b)) for a, b in symbols])


def fracs(*ns):
    return [Fraction(n) for n in ns]


@pytest.mark.parametrize(
    "a,b,places",
    [
        (-1, -1, {PLACE_REAL, Place(2)}),
        (1, 1, set()),
        (1, -1, set()),
        (2, 5, {Place(2), Place(5)}),
        (-1, 3, {Place(2), Place(3)}),
    ],
)
def test_symbol_support(a, b, places):
    c = cls((a, b))
    assert c.support == frozenset(places)
    assert c.is_trivial() == (not places)


def test_support_has_even_size():
    rng = random.Random(11)
    pool = [-1, 2, 3, 5, -7, 15, -30, 11]
    for _ in range(60):
        c = cls(*[(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 3))])
        assert len(c.support) % 2 == 0
        for v in c.support:
            assert c.invariant_at(v) == -1
        assert c.invariant_at(Place(13)) == 1 or Place(13) in c.support


def test_product_is_2torsion_and_commutative():
    a, b = cls((-1, -1)), cls((2, 5))
    assert a * b == b * a
    assert (a * a).is_trivial()
    assert (a * b * b) == a
    assert a * trivial_class(QQ) == a


def test_distance_is_discrete_metric():
    pts = [cls(), cls((-1, -1)), cls((2, 5)), cls((-1, -1), (2, 5)), cls((3, 7))]
    for x in pts:
        assert x.distance(x) == 0
        for y in pts:
            assert x.distance(y) == y.distance(x)
            assert x.distance(y) == (0 if x == y else 1)
            for z in pts:
                assert x.distance(z) <= x.distance(y) + y.distance(z)


def test_distance_translation_invariance():
    # d(ab, ac) = d(b, c), and d(b, c) = d(bc, 1)
    pts = [cls(), cls((-1, -1)), cls((2, 5)), cls((-1, 3))]
    for a in pts:
        for b in pts:
            for c in pts:
                assert (a * b).distance(a * c) == b.distance(c)
                assert b.distance(c) == (b * c).distance(trivial_class(QQ))


symbol_entries = st.sampled_from([-1, 2, 3, 5, -7, 10, 21, -2])


@given(st.lists(st.tuples(symbol_entries, symbol_entries), max_size=3),
       st.lists(st.tuples(symbol_entries, symbol_entries), max_size=3))
@settings(max_examples=40, deadline=None)
def test_equality_iff_product_trivial(s1, s2):
    c1 = cls(*s1)
    c2 = cls(*s2)
    assert (c1 == c2) == (c1 * c2).is_trivial()


@pytest.mark.parametrize("place", [PLACE_REAL, Place(2), Place(3), Place(5), Place(7)])
def test_hilbert_symbol_against_bruteforce(place):
    for a in range(-8, 9):
        for b in range(-8, 9):
            if a == 0 or b == 0:
                continue
            lhs = hilbert_symbol(Fraction(a), Fraction(b), place)
            assert lhs == hilbert_symbol_bruteforce(Fraction(a), Fraction(b), place)


def test_hilbert_symbol_rational_arguments():
    assert hilbert_symbol(Fraction(1, 2), Fraction(5), Place(2)) == \
        hilbert_symbol(Fraction(2), Fraction(5), Place(2))
    assert hilbert_symbol(Fraction(-9, 4), Fraction(-1), PLACE_REAL) == -1


@pytest.mark.parametrize(
    "entries,expected",
    [
        ((1, 1, 1, 1), [(-1, -1)]),
        ((1, 1, 1), [(-1, -1)]),
        ((1, -1), []),
        ((2, 5), [(2, 5)]),
    ],
)
def test_clifford_class_of_form(entries, expected):
    got = clifford_class_of_form(QuadraticSpace.diagonal(QQ, fracs(*entries)))
    assert got == cls(*expected)


def hasse_witt_support(diag):
    """Places where c(q) of <a_1, ..., a_n> is -1, from the Hasse-Witt
    invariant s = prod_{i<j} (a_i, a_j) and d = prod a_i (Lam, Introduction
    to Quadratic Forms over Fields, V.3.20):
    n = 1, 2 mod 8: s;  3, 4: s (-1, -d);  5, 6: s (-1, -1);  7, 0: s (-1, d)."""
    n = len(diag)
    d = Fraction(1)
    for a in diag:
        d *= a
    extra = {1: None, 2: None, 3: -d, 4: -d, 5: Fraction(-1), 6: Fraction(-1), 7: d, 0: d}[n % 8]
    out = set()
    for v in relevant_places(diag):
        s = 1
        for i in range(n):
            for j in range(i + 1, n):
                s *= hilbert_symbol(diag[i], diag[j], v)
        if extra is not None:
            s *= hilbert_symbol(Fraction(-1), extra, v)
        if s == -1:
            out.add(v)
    return out


@pytest.mark.parametrize("entries", [
    (7, 11, 3, 1, 5, 5, 1, 7),        # recursion entries reach 4.5e20
    (13, 17, 19, 23, 29, 31, 37, 41),
    (-3, 5, 7, -11, 13, 2, -17, 19, 23),
    (1000003, 999983, 3, 5, 7, 11),
    (1, -1, 2, 3),
    (2, 3, 5),
])
def test_clifford_class_support_matches_the_hasse_witt_product(entries):
    diag = fracs(*entries)
    got = clifford_class_of_form(QuadraticSpace.diagonal(QQ, diag))
    assert got.support == frozenset(hasse_witt_support(diag))
    if entries[:2] == (7, 11):
        assert got.support == {Place(7), Place(11)}


def test_product_support_is_the_symmetric_difference():
    rng = random.Random(29)
    pool = [-1, 2, 3, 5, -7, 15, -30, 11, Fraction(3, 7), -13]
    for _ in range(40):
        s1 = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 3))]
        s2 = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 3))]
        c1, c2 = cls(*s1), cls(*s2)
        assert (c1 * c2).support == c1.support ^ c2.support
        assert (c1 * c2).support == cls(*(s1 + s2)).support
        assert (c1 * c2).symbols == c1.symbols + c2.symbols


def test_even_clifford_classes_split_and_field():
    kind, cp, cm = even_clifford_classes(QuadraticSpace.diagonal(QQ, fracs(1, 1, 1, 1)))
    assert kind == "split" and cp == cls((-1, -1)) and cm == cls((-1, -1))
    kind2, z, res = even_clifford_classes(QuadraticSpace.diagonal(QQ, fracs(2, 3, -1, 5)))
    assert kind2 == "field" and res.is_trivial()


def rebased(A, basis):
    """A as an explicit algebra on another basis (elements of A)."""
    F = A.F
    cols = [v.c for v in basis]

    def coords(x):
        return solve(F, cols, x.c)

    table = {(i, j): coords(A.mul(x, y)) for i, x in enumerate(basis) for j, y in enumerate(basis)}
    return ExplicitAlgebra(F, A.dim, table, coords(A.one()), label=f"{A.label}'")


def scrambled(A):
    """A on the basis 1 + i, i + j, j + k, k, which holds no scalar."""
    one, i, j, k = (A.basis_el(t) for t in range(4))
    return rebased(A, [one + i, i + j, j + k, k])


def in_t_basis(A):
    """A over GF(4) on the basis 1, t i, t j, t k: no element of the
    candidate list has reduced trace 1."""
    t = A.F.gen()
    return rebased(A, [A.basis_el(0)] + [t * A.basis_el(s) for s in (1, 2, 3)])


SYMBOL_CORPUS = [
    (QQ, Fraction(-1), Fraction(-1), None, False),
    (QQ, Fraction(1), Fraction(-3), None, True),
    (F3, 1, 1, None, True),
    (F3, 2, 2, None, True),
    (QQ, Fraction(-1), Fraction(-1), scrambled, False),
    (QQ, Fraction(1), Fraction(-3), scrambled, True),
    (F3, 1, 1, scrambled, True),
    (F2, 1, 1, scrambled, True),
    (F4, F4.one(), F4.gen(), in_t_basis, True),
]


@pytest.mark.parametrize("F,a,b,basis,trivial", SYMBOL_CORPUS)
def test_quaternion_symbol_recovery(F, a, b, basis, trivial):
    Q = QuaternionAlgebra(F, a, b)
    sym = quaternion_symbol_of(Q if basis is None else basis(Q))
    assert BrauerClass(F, [sym]).is_trivial() == trivial
    if not trivial:
        assert BrauerClass(F, [sym]) == BrauerClass(F, [(a, b)])


def test_quaternion_symbol_of_a_commutative_algebra_is_refused():
    E = ProductAlgebra(ProductAlgebra(FieldAlgebra(QQ), FieldAlgebra(QQ)),
                       ProductAlgebra(FieldAlgebra(QQ), FieldAlgebra(QQ)))
    with pytest.raises(CertificationError):
        quaternion_symbol_of(E)


def test_quaternion_symbol_recovery_char2():
    sym = quaternion_symbol_of(QuaternionAlgebra(F2, 1, 1))
    assert BrauerClass(F2, [sym]).is_trivial()


@pytest.mark.parametrize("F,a,b,basis,trivial", SYMBOL_CORPUS + [(F2, 1, 1, None, True)])
def test_symbol_isomorphism_matches_the_closure_reference(monkeypatch, F, a, b, basis, trivial):
    # the images of i and j extended along the proved words, against the
    # breadth-first closure over i and j
    calls = recording_homs(monkeypatch, brauer)
    Q = QuaternionAlgebra(F, a, b)
    quaternion_symbol_of(Q if basis is None else basis(Q))
    (Qs, A, gen_images, hom), = calls
    assert Qs.generators() == [1, 2]
    assert hom.images == ref_hom_on_generators(Qs, A, [1, 2], gen_images).images


def test_restriction_to_quadratic_fields():
    c = cls((-1, -1))
    Zi, Z2 = EtaleQuadratic(QQ, Fraction(-1), False), EtaleQuadratic(QQ, Fraction(8), False)
    assert c.restrict(Zi).is_trivial()       # Q(i) splits it
    assert not c.restrict(Z2).is_trivial()    # stays definite
    assert c.restrict(Z2).to_json()["base"] == "Q(sqrt 2)"
    assert Z2.place_behavior(PLACE_REAL) == "split"        # totally real
    assert Zi.place_behavior(PLACE_REAL) == "inert"


def test_quaternion_model_roundtrip():
    assert quaternion_model(trivial_class(QQ)) == (1, 1)
    assert BrauerClass(QQ, [quaternion_model(trivial_class(QQ))]).is_trivial()
    target = cls((-1, -1), (2, 5))
    sym = quaternion_model(target)
    assert BrauerClass(QQ, [sym]) == target


# ---------------------------------------------------------------------------
# reference for the quaternion model: the pool search that the F2 solve
# replaced

def ref_quaternion_model(cls):
    """The first (a, b), in order of |a| then |b|, from the +- products of
    the support primes, then from those times one of +-p for the first
    three of 2, ..., 13 outside the support; raises where neither has one."""
    if cls.is_trivial():
        return (QQ.one(), QQ.one())
    primes = sorted({v.p for v in cls.support if not v.is_real})
    pool = set()
    for r in range(len(primes) + 1):
        for sub in itertools.combinations(primes, r):
            prod = 1
            for p in sub:
                prod *= p
            pool.add(QQ.from_int(prod))
            pool.add(QQ.from_int(-prod))
    extra = [QQ.from_int(p) for p in (2, 3, 5, 7, 11, 13) if p not in primes]
    widened = pool | {a * e for a in pool for e in extra[:3]} | {a * e for a in pool for e in [-f for f in extra[:3]]}
    for pair_pool in (pool, widened):
        for a in sorted(pair_pool, key=lambda x: (abs(x), x < 0)):
            for b in sorted(pair_pool, key=lambda x: (abs(x), x < 0)):
                if a == 0 or b == 0:
                    continue
                if BrauerClass(QQ, [(a, b)]) == cls:
                    return (a, b)
    raise UnsupportedInputError(f"no small quaternion model found for {cls!r}")


SMALL_PLACES = [PLACE_REAL] + [Place(p) for p in (2, 3, 5, 7, 11, 13)]
SMALL_SUPPORTS = [frozenset(s) for r in (2, 4, 6) for s in itertools.combinations(SMALL_PLACES, r)]
LARGE_SUPPORTS = [frozenset({PLACE_REAL, Place(241)}), frozenset({PLACE_REAL, Place(409)})]


def _support_id(support):
    return ",".join(repr(v) for v in sorted(support))


def test_the_small_supports_are_all_63():
    assert len(set(SMALL_SUPPORTS)) == 63


@pytest.mark.parametrize("support", [s for s in SMALL_SUPPORTS if sum(not v.is_real for v in s) <= 2],
                         ids=_support_id)
def test_quaternion_model_is_the_pool_searchs_pick(support):
    """With at most two finite primes the pool search and the solve read
    a and b in the same order, so they agree."""
    target = BrauerClass(QQ, [], support)
    assert quaternion_model(target) == ref_quaternion_model(target)


@pytest.mark.parametrize("support", SMALL_SUPPORTS + LARGE_SUPPORTS, ids=_support_id)
def test_quaternion_model_has_the_requested_support(support):
    a, b = quaternion_model(BrauerClass(QQ, [], support))
    for v in relevant_places([a, b]):
        assert hilbert_symbol_bruteforce(a, b, v) == (-1 if v in support else 1), (a, b, v)


def ref_widening(primes):
    """widening as it was written with trial division for primality."""
    primes = sorted(primes)
    while True:
        yield primes
        p = 2
        while p in primes or any(p % r == 0 for r in range(2, math.isqrt(p) + 1)):
            p += 1
        primes = sorted([*primes, p])


@pytest.mark.parametrize("start", [set(), {2, 3, 241}], ids=str)
def test_widening_matches_the_trial_division_loop(start):
    got = itertools.islice(brauer.widening(start), 30)
    assert list(got) == list(itertools.islice(ref_widening(start), 30))


def test_quaternion_model_of_a_large_prime_returns():
    code = ("from cliffcomp.brauer import BrauerClass, quaternion_model\n"
            "from cliffcomp.scalars import QQ, PLACE_REAL, Place\n"
            "for p in (241, 409):\n"
            "    print(*quaternion_model(BrauerClass(QQ, [], {PLACE_REAL, Place(p)})))\n")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split("\n")[:2] == ["-7 -241", "-7 -409"]


def test_finite_field_classes_always_trivial():
    assert BrauerClass(F3, [(1, 1), (2, 1)]).is_trivial()
    assert BrauerClass(F3, [(2, 2)]).distance(trivial_class(F3)) == 0
