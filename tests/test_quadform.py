"""Quadratic spaces: evaluation, regularity, diagonalization, char-2 invariants."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliffcomp
from cliffcomp import linalg, mcd
from cliffcomp.errors import UnsupportedInputError
from cliffcomp.linalg import kernel
from cliffcomp.quadform import QuadraticSpace, all_small_forms, random_form
from cliffcomp.scalars import QQ, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)


def frac(n, d=1):
    return Fraction(n, d)


def fracs(*ns):
    return [Fraction(n) for n in ns]


def test_evaluation_upper_triangular():
    # q(x, y) = x^2 + 3xy - y^2
    q = QuadraticSpace(QQ, [fracs(1, 3), fracs(0, -1)])
    assert q.q(fracs(1, 0)) == 1
    assert q.q(fracs(0, 1)) == -1
    assert q.q(fracs(1, 1)) == 3
    assert q.q(fracs(2, -1)) == 4 - 6 - 1


def test_rejects_lower_triangular_entry():
    with pytest.raises(UnsupportedInputError):
        QuadraticSpace(QQ, [fracs(1, 0), fracs(3, -1)])


def test_polar_form_symmetry_and_polarization():
    q = QuadraticSpace(QQ, [fracs(2, 1, 0), fracs(0, -1, 4), fracs(0, 0, 3)])
    xs = [fracs(1, 0, 0), fracs(0, 1, 0), fracs(1, -1, 2), fracs(3, 1, 1)]
    for x in xs:
        assert q.bq(x, x) == 2 * q.q(x)
        for y in xs:
            assert q.bq(x, y) == q.bq(y, x)
            s = [a + b for a, b in zip(x, y)]
            assert q.q(s) == q.q(x) + q.q(y) + q.bq(x, y)


def test_polar_alternating_char2():
    q = QuadraticSpace(F2, [[1, 1], [0, 1]])
    for x in ([1, 0], [0, 1], [1, 1]):
        assert q.bq(x, x) == 0


@pytest.mark.parametrize(
    "entries,expected",
    [
        ((1, 1, 1), "regular"),
        ((1, 0, 1), "degenerate"),
        ((1, -1), "regular"),
    ],
)
def test_regularity_diagonal(entries, expected):
    q = QuadraticSpace.diagonal(QQ, fracs(*entries))
    assert q.regularity() == expected


def test_regularity_char2():
    # xy is regular; x^2 has a one-dimensional radical with q nonzero on it
    assert QuadraticSpace.from_upper_entries(F2, 2, {(0, 1): 1}).regularity() == "regular"
    assert QuadraticSpace.diagonal(F2, [1]).regularity() == "semi-regular"
    assert QuadraticSpace.diagonal(F2, [0]).regularity() == "degenerate"
    # odd dimension in char 2 is never regular
    q3 = QuadraticSpace(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert q3.regularity() == "semi-regular"


def test_scale_and_orthogonal_sum():
    q = QuadraticSpace.diagonal(QQ, fracs(1, -2))
    s = q.scale(frac(3))
    assert s.q(fracs(1, 1)) == 3 * q.q(fracs(1, 1))
    r = q.orthogonal_sum(QuadraticSpace.diagonal(QQ, fracs(5)))
    assert r.n == 3
    assert r.q(fracs(1, 1, 1)) == -1 + 5
    assert r.bq(fracs(1, 0, 0), fracs(0, 0, 1)) == 0


def test_restrict_to_subspace():
    q = QuadraticSpace.diagonal(QQ, fracs(1, 1, -1))
    sub = q.restrict([fracs(1, 1, 0), fracs(0, 1, 1)])
    assert sub.n == 2
    assert sub.q(fracs(1, 0)) == q.q(fracs(1, 1, 0))
    assert sub.bq(fracs(1, 0), fracs(0, 1)) == q.bq(fracs(1, 1, 0), fracs(0, 1, 1))


def _is_rational_square(x: Fraction) -> bool:
    if x <= 0:
        return x == 0
    n = x.numerator * x.denominator
    r = math.isqrt(n)
    return r * r == n


def test_diagonalization_preserves_signature_and_discriminant():
    rng = random.Random(5)
    for _ in range(25):
        entries = [frac(rng.choice([-5, -3, -1, 1, 2, 3, 7])) for _ in range(4)]
        q0 = QuadraticSpace.diagonal(QQ, entries)
        # random unimodular change of basis
        vecs = [[frac(1 if i == j else 0) for j in range(4)] for i in range(4)]
        for _ in range(6):
            i, j = rng.sample(range(4), 2)
            c = frac(rng.randint(-2, 2))
            vecs[i] = [a + c * b for a, b in zip(vecs[i], vecs[j])]
        q1 = q0.restrict(vecs)
        d0, d1 = q0.diagonalization(), q1.diagonalization()
        assert sum(1 for v in d1 if v > 0) == sum(1 for v in entries if v > 0)
        prod0 = math.prod(d0)
        prod1 = math.prod(d1)
        assert _is_rational_square(prod0 * prod1)


def test_diagonalization_refused_char2():
    with pytest.raises(UnsupportedInputError):
        QuadraticSpace.diagonal(F2, [1, 1]).diagonalization()


# ---------------------------------------------------------------------------
# references for the congruence elimination: the former vector-based
# diagonalization, which re-evaluates the Gram form on basis vectors, and a
# dense forward elimination for the determinant

def _gram(q):
    F = q.F
    half = F.inv(F.from_int(2))
    return [[F.mul(half, v) for v in row] for row in q.polar_matrix()]


def ref_diagonalization(q):
    F, n, G = q.F, q.n, _gram(q)

    def gram(u, v):
        acc = F.zero()
        for i in range(n):
            for j in range(n):
                acc = F.add(acc, F.mul(u[i], F.mul(G[i][j], v[j])))
        return acc

    out = []
    vecs = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
    while vecs:
        pick = next((v for v in vecs if not F.is_zero(gram(v, v))), None)
        if pick is None:
            for a in range(len(vecs)):
                for b in range(a + 1, len(vecs)):
                    w = [F.add(x, y) for x, y in zip(vecs[a], vecs[b])]
                    if pick is None and not F.is_zero(gram(w, w)):
                        vecs[a] = pick = w
            if pick is None:
                out.extend(F.zero() for _ in vecs)
                break
        d = gram(pick, pick)
        out.append(d)
        c = F.inv(d)
        vecs = [[F.sub(x, F.mul(F.mul(c, gram(pick, v)), y)) for x, y in zip(v, pick)]
                for v in vecs if v is not pick]
    return out


def ref_det(F, A):
    n = len(A)
    M = [list(row) for row in A]
    d = F.one()
    for c in range(n):
        pr = next((i for i in range(c, n) if not F.is_zero(M[i][c])), None)
        if pr is None:
            return F.zero()
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            d = F.neg(d)
        d = F.mul(d, M[c][c])
        inv = F.inv(M[c][c])
        for i in range(c + 1, n):
            if not F.is_zero(M[i][c]):
                f = F.mul(inv, M[i][c])
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[c])]
    return d


def ref_center_datum(q):
    F = q.F
    d = ref_det(F, _gram(q))
    if F.is_zero(d):
        return None
    return F.neg(d) if q.n * (q.n - 1) // 2 % 2 else d


def _seeded_forms(F, rng):
    """Dense, zero-diagonal (sheared) and degenerate forms with n <= 8."""
    def entry():
        return frac(rng.randint(-3, 3)) if F.char == 0 else rng.randrange(F.p)

    def dense(n):
        return QuadraticSpace(F, [[entry() if j >= i else F.zero() for j in range(n)]
                                  for i in range(n)])

    out = [QuadraticSpace(F, [[F.zero()] * 3 for _ in range(3)])]
    for n in range(1, 9):
        for _ in range(4):
            out.append(dense(n))
            q = dense(n)
            out.append(QuadraticSpace(F, [[F.zero() if i == j else v for j, v in enumerate(row)]
                                          for i, row in enumerate(q.M)]))
            if n > 1:
                # n vectors in an (n-1)-dimensional space: a degenerate form
                vecs = [[entry() for _ in range(n - 1)] for _ in range(n - 1)]
                vecs.append([F.add(x, y) for x, y in zip(vecs[0], vecs[-1])])
                out.append(dense(n - 1).restrict(vecs))
    return out


def _diagonalization_corpus():
    forms = [q for n in (1, 2, 3) for q in all_small_forms(F3, n)]
    rng = random.Random(11)
    for F in (QQ, PrimeField(5), PrimeField(7)):
        forms += _seeded_forms(F, rng)
    return forms


def test_diagonalization_matches_the_vector_reference():
    corpus = _diagonalization_corpus()
    sheared = degenerate = 0
    for q in corpus:
        got = q.diagonalization()
        assert got == ref_diagonalization(q), q.M
        F = q.F
        prod = F.one()
        for a in got:
            prod = F.mul(prod, a)
        assert prod == ref_det(F, _gram(q)), q.M
        expected = ref_center_datum(q)
        if expected is None:
            degenerate += 1
            with pytest.raises(UnsupportedInputError):
                q.center_datum()
        else:
            assert q.center_datum() == expected, q.M
        G = _gram(q)
        sheared += q.n > 1 and all(F.is_zero(G[i][i]) for i in range(q.n)) and any(
            not F.is_zero(v) for row in G for v in row)
    assert sheared > 20 and degenerate > 20


# ---------------------------------------------------------------------------
# regularity: outside characteristic 2 it is read from the diagonalization;
# the reference is the radical of the polar form, as it was computed before

def ref_regularity(q):
    F = q.F
    rad = kernel(F, q.polar_columns(), q.n)
    if not rad:
        return "regular"
    if F.char == 2 and q.n % 2 == 1 and len(rad) == 1:
        if not F.is_zero(q.q([rad[0].get(i, F.zero()) for i in range(q.n)])):
            return "semi-regular"
    return "degenerate"


def _every_upper_triangular(F, n):
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    for combo in itertools.product(list(F.elements()), repeat=len(slots)):
        yield QuadraticSpace.from_upper_entries(F, n, dict(zip(slots, combo)))


def _seeded_gram_forms(rng):
    """Dense, zero-diagonal and zero-row forms over Q with n = 2..8."""
    out = []
    for n in range(2, 9):
        for _ in range(6):
            M = [[frac(rng.randint(-3, 3)) if j >= i else frac(0) for j in range(n)]
                 for i in range(n)]
            out.append(QuadraticSpace(QQ, M))
            out.append(QuadraticSpace(QQ, [[frac(0) if i == j else v for j, v in enumerate(row)]
                                           for i, row in enumerate(M)]))
            z = rng.randrange(n)
            out.append(QuadraticSpace(QQ, [[frac(0) if z in (i, j) else v
                                            for j, v in enumerate(row)]
                                           for i, row in enumerate(M)]))
    return out


def test_regularity_matches_the_radical_reference():
    corpus = [q for n in (1, 2, 3) for q in _every_upper_triangular(F3, n)]
    corpus += list(_every_upper_triangular(PrimeField(5), 2))
    corpus += _seeded_gram_forms(random.Random(13))
    verdicts = {"regular": 0, "degenerate": 0}
    for q in corpus:
        got = q.regularity()
        assert got == ref_regularity(q), (q.F, q.M)
        verdicts[got] += 1
    assert min(verdicts.values()) > 100


def _count_calls(monkeypatch, owners, name):
    """Wrap owner.name on each owner; the returned list gets one entry per call."""
    calls = []
    for owner in owners:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_profile_eliminates_a_rational_form_once(monkeypatch):
    rng = random.Random(3)
    M = [[frac(rng.randint(-3, 3)) if j > i else frac(0) for j in range(8)] for i in range(8)]
    for i in range(8):
        M[i][i] = frac(rng.choice([-3, -2, -1, 1, 2, 3]))
    q = QuadraticSpace(QQ, M)
    eliminations = _count_calls(monkeypatch, [QuadraticSpace], "_eliminate")
    holders = [m for m in (linalg, *(getattr(cliffcomp, n) for n in dir(cliffcomp)))
               if getattr(m, "kernel", None) is linalg.kernel]
    kernels = _count_calls(monkeypatch, holders, "kernel")
    mcd.profile_from_form(q)
    assert len(eliminations) == 1
    assert not kernels and len(holders) > 2


def test_profile_takes_one_radical_in_characteristic_2(monkeypatch):
    q = random_form(F2, 8, random.Random(4))
    assert q.regularity() == "regular"
    q = QuadraticSpace(F2, q.M)  # a fresh space, nothing cached yet
    radicals = _count_calls(monkeypatch, [QuadraticSpace], "radical")
    mcd.profile_from_form(q)
    assert len(radicals) == 1


def test_cached_invariants_are_copies():
    q = QuadraticSpace(QQ, [fracs(1, 2, 0), fracs(0, 0, 1), fracs(0, 0, -3)])
    d, B = q.diagonalization(), q.polar_matrix()
    d0, B0 = list(d), [list(row) for row in B]
    d[0] = frac(0)
    d.append(frac(5))
    B[0][0] = frac(7)
    B[1] = []
    assert q.diagonalization() == d0
    assert q.polar_matrix() == B0
    assert q.bq(fracs(1, 0, 0), fracs(1, 0, 0)) == 2
    assert q.regularity() == "regular"


def test_symplectic_basis_properties():
    q = QuadraticSpace.from_upper_entries(
        F2, 4, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (2, 3): 1}
    )
    assert q.regularity() == "regular"
    pairs = q.symplectic_basis()
    assert len(pairs) == 2
    flat = [v for p in pairs for v in p]
    for a in range(4):
        for b in range(4):
            want = 1 if (a // 2 == b // 2 and a != b) else 0
            assert q.bq(flat[a], flat[b]) == F2.from_int(want)


@pytest.mark.parametrize(
    "entries,arf",
    [
        ({(0, 1): 1}, 0),                      # xy
        ({(0, 0): 1, (0, 1): 1, (1, 1): 1}, 1),  # x^2 + xy + y^2
    ],
)
def test_arf_invariant_gf2(entries, arf):
    q = QuadraticSpace.from_upper_entries(F2, 2, entries)
    assert q.arf_invariant() == F2.from_int(arf)


def test_arf_refused_outside_char2():
    with pytest.raises(UnsupportedInputError):
        QuadraticSpace.diagonal(QQ, fracs(1, 1)).arf_invariant()


@pytest.mark.parametrize(
    "entries,split",
    [
        ((1, 1), False),   # disc datum -1: Q(i)
        ((1, -1), True),   # hyperbolic plane
        ((2, 3, 5), False),
        ((1, 1, 1, 1), True),   # datum (-1)^6 det = 1
        ((1, 1, 1, -1), False),
    ],
)
def test_discriminant_algebra(entries, split):
    q = QuadraticSpace.diagonal(QQ, fracs(*entries))
    assert q.discriminant_algebra().split is split


def test_center_datum_char2():
    assert QuadraticSpace.from_upper_entries(F2, 2, {(0, 1): 1}).center_datum() == 0
    ent = {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    assert QuadraticSpace.from_upper_entries(F2, 2, ent).center_datum() == 1
    with pytest.raises(UnsupportedInputError):
        QuadraticSpace.diagonal(F2, [1]).center_datum()


@given(st.integers(2, 5), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_random_form_usable(n, seed):
    q = random_form(QQ, n, random.Random(seed))
    assert q.n == n and q.is_usable()


def test_all_small_forms_gf2_counts():
    forms2 = list(all_small_forms(F2, 2))
    assert all(f.is_usable() for f in forms2)
    # every usable binary form over GF(2) appears: 2^3 matrices, minus unusable
    assert len(forms2) == len({tuple(tuple(r) for r in f.M) for f in forms2})
    forms1 = list(all_small_forms(F3, 1))
    assert {f.M[0][0] for f in forms1} == {1, 2}
