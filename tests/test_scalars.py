"""Field arithmetic, square classes, Hilbert symbols, quadratic etale data."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffcomp.errors import InputTooLargeError, UnsupportedInputError
from cliffcomp.scalars import (
    QQ,
    EtaleQuadratic,
    ExtField,
    Place,
    PrimeField,
    PLACE_REAL,
    _artin_schreier_solvable,
    _binomial_exponents,
    _coeff_tuples,
    _find_irreducible,
    _integral,
    _poly_divmod,
    _poly_is_irreducible,
    _poly_trim,
    artin_schreier_root,
    etale_split,
    field_from_json,
    hilbert_symbol,
    hilbert_symbol_bruteforce,
    legendre,
    quad_ext_info,
    relevant_places,
    squarefree_part,
    trial_factor,
)


SMALL_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5), ExtField(2, 2), ExtField(3, 2)]


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_field_axioms_exhaustive(F):
    els = list(F.elements())
    one, zero = F.one(), F.zero()
    for x in els:
        assert F.add(x, zero) == x
        assert F.mul(x, one) == x
        assert F.add(x, F.neg(x)) == zero
        if not F.is_zero(x):
            assert F.mul(x, F.inv(x)) == one
    for x in els:
        for y in els:
            assert F.add(x, y) == F.add(y, x)
            assert F.mul(x, y) == F.mul(y, x)
            for z in els:
                assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
                assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_frobenius_and_unit_group(F):
    els = list(F.elements())
    q = F.order
    p = F.char
    for x in els:
        for y in els:
            assert F.pow(F.add(x, y), p) == F.add(F.pow(x, p), F.pow(y, p))
        if not F.is_zero(x):
            assert F.pow(x, q - 1) == F.one()


def test_ext_field_modulus_checked():
    with pytest.raises(UnsupportedInputError):
        ExtField(2, 2, (0, 0, 1))  # X^2 reducible
    with pytest.raises(UnsupportedInputError):
        ExtField(2, 2, (1, 1))  # wrong degree


def ref_poly_is_irreducible(m, p) -> bool:
    """The exhaustive divisor test that Rabin's test replaced: try every
    monic polynomial of degree up to deg(m) / 2."""
    m = _poly_trim(m)
    deg = len(m) - 1
    if deg <= 1:
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for tail in _coeff_tuples(p, d):
            if _poly_divmod(m, tail + (1,), p)[1] == (0,):
                return False
    return True


@pytest.mark.parametrize("p,degrees", [(2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2, 3)), (7, (2, 3))])
def test_rabin_matches_the_divisor_search(p, degrees):
    irreducible = 0
    for d in degrees:
        for tail in _coeff_tuples(p, d):
            m = tail + (1,)
            verdict = _poly_is_irreducible(m, p)
            assert verdict == ref_poly_is_irreducible(m, p), m
            irreducible += verdict
    assert irreducible  # both verdicts occur


def test_coeff_tuples_order():
    # the first coefficient varies fastest, which fixes the default moduli
    for p, k in ((2, 3), (3, 2), (5, 3)):
        assert list(_coeff_tuples(p, k)) == [t[::-1] for t in itertools.product(range(p), repeat=k)]


def test_binomial_criterion_matches_rabin():
    # x^k - a for every a over GF(p), p <= 31, k = 2..8: 1,120 binomials
    primes = [p for p in range(2, 32) if all(p % d for d in range(2, p))]
    seen = irreducible = 0
    for p in primes:
        for k in range(2, 9):
            exponents = _binomial_exponents(p, k)
            for a in range(p):
                verdict = exponents is not None and a != 0 and all(
                    pow(a, e, p) != 1 for e in exponents)
                m = ((-a) % p,) + (0,) * (k - 1) + (1,)
                assert verdict == _poly_is_irreducible(m, p), (p, k, a)
                seen += 1
                irreducible += verdict
    assert seen == 1120 and irreducible


# the moduli the element-order search found when every binomial went
# through Rabin's test; deciding the binomials first must keep them
PINNED_MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1), (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1), (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (5, 4): (2, 0, 0, 0, 1), (13, 12): (2,) + (0,) * 11 + (1,),
    (17, 8): (3, 0, 0, 0, 0, 0, 0, 0, 1), (31, 6): (5, 0, 0, 0, 0, 0, 1),
    (1009, 2): (11, 0, 1), (10007, 4): (6, 1, 0, 0, 1),
}


@pytest.mark.parametrize("p,k", sorted(PINNED_MODULI), ids=lambda v: str(v))
def test_default_modulus_is_pinned(p, k):
    assert _find_irreducible(p, k) == PINNED_MODULI[(p, k)]


def test_modulus_search_skips_a_block_of_reducible_binomials():
    # 4 | k and p = 3 mod 4: no binomial is irreducible, and none is tested
    t0 = time.perf_counter()
    F = ExtField(65519, 4)
    assert time.perf_counter() - t0 < 1
    assert F.modulus == (13, 1, 0, 0, 1)


def test_ext_field_order_bound():
    # p^k above 2^64 is refused before any search or Rabin test, also with
    # a modulus given
    for args in ((2, 65), (2, 5000), (2, 10**18), (4294967311, 2), (2, 100, (1,) * 101)):
        with pytest.raises(InputTooLargeError):
            ExtField(*args)
    assert ExtField(1000000007, 2).order < 2**64


def test_large_prime_extension_builds_fast():
    t0 = time.perf_counter()
    F = ExtField(100003, 2)
    assert time.perf_counter() - t0 < 0.2
    assert F.modulus == (1, 0, 1)


def test_field_json_roundtrip():
    for F in [QQ] + SMALL_FIELDS:
        assert field_from_json(F.to_json()) == F


@pytest.mark.parametrize(
    "x,expect",
    [
        (Fraction(4), True),
        (Fraction(9, 16), True),
        (Fraction(0), True),
        (Fraction(2), False),
        (Fraction(-4), False),
        (Fraction(8, 2), True),
        (Fraction(50, 2), True),
    ],
)
def test_rational_is_square(x, expect):
    assert QQ.is_square(x) is expect
    if expect:
        r = QQ.sqrt(x)
        assert r * r == x


def test_is_square_bound():
    with pytest.raises(InputTooLargeError):
        QQ.is_square(Fraction(2**70))


def test_finite_field_squares_count():
    # in odd characteristic exactly (q+1)/2 squares, in char 2 all q
    for F in SMALL_FIELDS:
        n = sum(1 for x in F.elements() if F.is_square(x))
        assert n == F.order if F.char == 2 else n == (F.order + 1) // 2
        for x in F.elements():
            if F.is_square(x):
                r = F.sqrt(x)
                assert F.mul(r, r) == x


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 97, 101, 257, 1009, 65537])
def test_prime_field_sqrt_is_the_least_root(p):
    # the root a search over t = 0, 1, ... finds first: center_structure
    # builds its idempotent from it
    least = {}
    for t in range(p):
        least.setdefault(t * t % p, t)
    F = PrimeField(p)
    for x in range(p):
        assert F.sqrt(x) == least.get(x), x


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)], ids=["GF(9)", "GF(25)", "GF(27)"])
def test_ext_field_sqrt_is_the_first_root_in_element_order(p, k):
    # the root the walk over F.elements() meets first
    F = ExtField(p, k)
    first = {}
    for r in F.elements():
        first.setdefault(F.mul(r, r), r)
    for x in F.elements():
        assert F.sqrt(x) == first.get(x), x


def test_ext_field_sqrt_large_prime():
    # the non-square z is sought from t on, so no step walks through GF(p)
    F = ExtField(1000000007, 2)
    for x in (F.from_int(3), F.from_int(5), F.mul(F.gen(), F.gen())):
        t0 = time.perf_counter()
        r = F.sqrt(x)
        assert time.perf_counter() - t0 < 1
        assert F.mul(r, r) == x


def test_prime_field_sqrt_large_prime():
    p = 1000000007
    F = PrimeField(p)
    for x in (2, 3, 5, 1000, p - 1):
        r = F.sqrt(x)
        if F.is_square(x):
            assert r * r % p == x and r <= p - r
        else:
            assert r is None


def test_trial_factor():
    assert trial_factor(360) == {2: 3, 3: 2, 5: 1}
    assert trial_factor(-7) == {7: 1}
    with pytest.raises(InputTooLargeError):
        trial_factor(2**64)


def _factor_by_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_trial_factor_matches_plain_division():
    for n in list(range(1, 3000)) + [999983 * 999979, 1009 * 1000003 * 1000033, 3**39]:
        assert trial_factor(n) == _factor_by_division(n)
        assert list(trial_factor(n)) == sorted(trial_factor(n))


@pytest.mark.parametrize("n,factors", [
    (1000000000000000003, {1000000000000000003: 1}),
    (2 * 1000000000000000003, {2: 1, 1000000000000000003: 1}),
    (1000000007 * 1000000009, {1000000007: 1, 1000000009: 1}),
    ((2**31 - 1) ** 2, {2**31 - 1: 2}),
    (2**61 - 1, {2**61 - 1: 1}),
])
def test_trial_factor_large_cofactors(n, factors):
    # a cofactor past the trial-division limit goes to Miller-Rabin and
    # Pollard rho instead of dividing toward its square root
    assert trial_factor(n) == factors


RATIONALS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=1000),
)


def _assert_normal(got, want):
    # an integral value is an int, and only a non-integral one a Fraction
    assert got == want
    assert type(got) is (int if Fraction(want).denominator == 1 else Fraction)


@settings(derandomize=True, max_examples=300)
@given(RATIONALS, RATIONALS)
def test_rational_values_are_ints_exactly_when_integral(x, y):
    fx, fy = Fraction(x), Fraction(y)
    _assert_normal(QQ.add(x, y), fx + fy)
    _assert_normal(QQ.sub(x, y), fx - fy)
    _assert_normal(QQ.mul(x, y), fx * fy)
    _assert_normal(QQ.parse(str(fx)), fx)
    _assert_normal(QQ.sqrt(QQ.mul(x, x)), abs(fx))
    if not QQ.is_square(x):
        assert QQ.sqrt(x) is None
    if y != 0:
        _assert_normal(QQ.div(x, y), fx / fy)
        _assert_normal(QQ.inv(y), 1 / fy)


def test_rational_constructors_are_ints():
    for x, want in ((QQ.zero(), 0), (QQ.one(), 1), (QQ.from_int(-7), -7),
                    (QQ.parse("6/3"), 2), (QQ.sqrt(Fraction(16, 4)), 2)):
        assert type(x) is int and x == want
    assert QQ.fmt(QQ.parse("-12")) == "-12"


@pytest.mark.parametrize("s", ["0", "-0", "+3", "007", "-12", "1/2", "3.0", "1e3", " 4", "1_000"])
def test_rational_parse_matches_the_fraction_path(s):
    # an ASCII integer literal is read by int(); the value is the same
    got, want = QQ.parse(s), _integral(Fraction(s))
    assert got == want and type(got) is type(want)
    assert QQ.fmt(QQ.parse("4/6")) == "2/3"


def test_rational_inverse_and_quotient_stay_exact():
    for x in (QQ.inv(2), QQ.div(1, 2), QQ.div(Fraction(3), 6)):
        assert x == Fraction(1, 2)
        assert isinstance(x, Fraction) and not isinstance(x, float)


@pytest.mark.parametrize(
    "x,part",
    [(12, 3), (-18, -2), (Fraction(4, 9), 1), (Fraction(8, 3), 6), (1, 1), (-1, -1), (Fraction(-75, 2), -6)],
)
def test_squarefree_part(x, part):
    assert squarefree_part(x) == part


@given(st.integers(-40, 40), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_squarefree_part_is_square_class(n, d):
    if n == 0:
        return
    x = Fraction(n, d)
    s = squarefree_part(x)
    assert QQ.is_square(x / s)
    assert squarefree_part(x * Fraction(9, 4)) == s


def test_legendre_small():
    assert [legendre(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    assert legendre(0, 5) == 0
    assert legendre(-1, 13) == 1
    assert legendre(-1, 11) == -1


@pytest.mark.parametrize(
    "a,b,v,expect",
    [
        (-1, -1, "inf", -1),
        (-1, -1, 2, -1),
        (-1, -1, 3, 1),
        (2, 3, 3, -1),
        (2, 3, 2, -1),
        (2, 3, "inf", 1),
        (5, 5, 5, 1),
        (Fraction(1, 2), 3, 2, -1),
        (2, 2, 2, 1),
        (3, 3, 3, -1),
    ],
)
def test_hilbert_known_values(a, b, v, expect):
    assert hilbert_symbol(a, b, Place(v)) == expect


def test_hilbert_symmetry_and_bilinearity():
    vals = [1, -1, 2, 3, 5, -6, Fraction(1, 3)]
    places = relevant_places(vals)
    for v in places:
        for a in vals:
            for b in vals:
                s = hilbert_symbol(a, b, v)
                assert s == hilbert_symbol(b, a, v)
                # multiplicativity in the first slot
                for c in (2, -3):
                    assert hilbert_symbol(a * c, b, v) == s * hilbert_symbol(c, b, v)


def test_hilbert_product_formula():
    # over all relevant places the symbols multiply to 1
    pairs = [(a, b) for a in range(-12, 13) for b in range(-12, 13) if a and b]
    for a, b in pairs[::7]:
        prod = 1
        for v in relevant_places([a, b]):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_hilbert_square_triviality():
    # (a, b^2) = 1 always
    for a in (-5, -1, 2, 7):
        for b in (-3, 2, 5):
            for v in relevant_places([a, b]):
                assert hilbert_symbol(a, b * b, v) == 1


@pytest.mark.parametrize("a", [-6, -1, 2, 3, 10])
@pytest.mark.parametrize("b", [-10, -2, 1, 5, 6])
def test_hilbert_oracle_agreement_sample(a, b):
    # the independent congruence search must agree with the local formulas
    for v in relevant_places([a, b]):
        assert hilbert_symbol(a, b, v) == hilbert_symbol_bruteforce(a, b, v), (a, b, v)


def test_place_basics():
    assert Place("inf") == PLACE_REAL
    assert Place(7).p == 7
    with pytest.raises(UnsupportedInputError):
        Place(6)
    assert sorted([Place(5), PLACE_REAL, Place(2)]) == [PLACE_REAL, Place(2), Place(5)]


def test_relevant_places():
    ps = relevant_places([Fraction(5, 6), -7])
    assert PLACE_REAL in ps and Place(2) in ps and Place(3) in ps
    assert Place(5) in ps and Place(7) in ps
    assert Place(11) not in ps


@pytest.mark.parametrize(
    "m,place,expect",
    [
        (2, "inf", "split"),
        (2, 2, "ramified"),
        (2, 7, "split"),
        (2, 3, "inert"),
        (2, 5, "inert"),
        (-1, "inf", "inert"),
        (-1, 2, "ramified"),
        (-1, 5, "split"),
        (-1, 7, "inert"),
        (17, 2, "split"),
        (5, 2, "inert"),
        (-3, 2, "inert"),
        (3, 2, "ramified"),
        (Fraction(1, 2), 2, "ramified"),
    ],
)
def test_place_behavior(m, place, expect):
    E = quad_ext_info(QQ, Fraction(m))
    assert E.place_behavior(Place(place)) == expect


def test_split_etale():
    E = quad_ext_info(QQ, Fraction(9))
    assert E.split
    for v in ("inf", 2, 3, 5):
        assert E.place_behavior(Place(v)) == "split"
    assert etale_split(QQ).split
    assert etale_split(PrimeField(2)).split


def test_etale_isomorphism_square_class():
    assert quad_ext_info(QQ, Fraction(2)) == quad_ext_info(QQ, Fraction(8))
    assert quad_ext_info(QQ, Fraction(2)) != quad_ext_info(QQ, Fraction(3))
    assert quad_ext_info(QQ, Fraction(-1)) != quad_ext_info(QQ, Fraction(1))


def test_etale_char2_artin_schreier():
    F2 = PrimeField(2)
    assert not quad_ext_info(F2, 1).split  # t^2 + t = 1 unsolvable in GF(2)
    assert quad_ext_info(F2, 0).split
    F4 = ExtField(2, 2)
    g = F4.gen()
    assert not quad_ext_info(F4, g).split
    assert quad_ext_info(F4, F4.one()).split  # 1 = g^2 + g under X^2+X+1
    # isomorphism = same class mod the image of t^2 + t
    assert quad_ext_info(F4, g) == quad_ext_info(F4, F4.add(g, F4.one()))


def test_etale_norm_multiplicative():
    E = quad_ext_info(QQ, Fraction(3))
    F = QQ
    # norm(x*y) = norm(x) norm(y) for x = 1 + 2t, y = 3 - t with t^2 = 3
    # (1+2t)(3-t) = 3 - t + 6t - 2*3 = -3 + 5t
    assert E.norm(Fraction(-3), Fraction(5)) == E.norm(Fraction(1), Fraction(2)) * E.norm(Fraction(3), Fraction(-1))
    E2 = quad_ext_info(PrimeField(2), 1)
    # in char 2: (c0 + c1 x)(d0 + d1 x) with x^2 = x + 1
    # (1 + x)(1 + x) = 1 + x^2 = x, norm(1,1) = 1+1+1 = 1, norm(0,1) = 1
    assert E2.norm(1, 1) == 1
    assert E2.norm(0, 1) == 1


def _walk_artin_schreier_root(F, a):
    return next((t for t in F.elements() if F.add(F.mul(t, t), t) == a), None)


@pytest.mark.parametrize("k", range(1, 7))
def test_artin_schreier_matches_the_walk(k):
    # the trace decides solvability, and the solve returns the root a walk
    # over F.elements() finds first, which center_structure builds on
    F = PrimeField(2) if k == 1 else ExtField(2, k)
    for a in F.elements():
        root = _walk_artin_schreier_root(F, a)
        assert _artin_schreier_solvable(F, a) is (root is not None)
        assert artin_schreier_root(F, a) == root


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (2, 3), (2, 4)])
def test_ext_field_sqrt_is_the_first_root(p, k):
    F = ExtField(p, k)
    first = {}
    for t in F.elements():
        first.setdefault(F.mul(t, t), t)
    for x in F.elements():
        assert F.sqrt(x) == first.get(x), x


def ref_prime_sqrt(F, x):
    """PrimeField.sqrt with its own Tonelli-Shanks loop on machine ints."""
    p = F.p
    x %= p
    if not F.is_square(x):
        return None
    if p == 2 or x == 0:
        return x
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def ref_ext_sqrt(F, x):
    """ExtField.sqrt with its own Tonelli-Shanks loop."""
    if F.p == 2:
        return F.pow(x, F.order // 2)
    if not F.is_square(x):
        return None
    if F.is_zero(x):
        return F.zero()
    q, s = F.order - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    one = F.one()
    tails = itertools.islice(_coeff_tuples(F.p, F.k - 1), 1, None)
    z = next(z for tail in tails for z in ((c,) + tail for c in range(F.p))
             if not F.is_square(z))
    c, t, r = F.pow(z, q), F.pow(x, q), F.pow(x, (q + 1) // 2)
    while t != one:
        i, t2 = 0, t
        while t2 != one:
            t2 = F.mul(t2, t2)
            i += 1
        b = F.pow(c, 1 << (s - i - 1))
        bb = F.mul(b, b)
        s, c, t, r = i, bb, F.mul(t, bb), F.mul(r, b)
    return min(r, F.neg(r), key=lambda e: e[::-1])


@pytest.mark.parametrize("p", [p for p in range(2, 102) if all(p % d for d in range(2, p))])
def test_prime_field_sqrt_matches_its_own_loop(p):
    F = PrimeField(p)
    for x in F.elements():
        assert F.sqrt(x) == ref_prime_sqrt(F, x), x


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 3), (2, 4)], ids=["GF(9)", "GF(25)", "GF(343)", "GF(16)"])
def test_ext_field_sqrt_matches_its_own_loop(p, k):
    F = ExtField(p, k)
    for x in F.elements():
        assert F.sqrt(x) == ref_ext_sqrt(F, x), x
