"""Quadratic pairs: f read off one echelon, against one solve per right-hand side;
the adjoint involution, against its written-out matrix units; the pair at
l = 1/2, against f = Trd/2 written out."""

import random

import pytest

from cliffcomp.algebra import El, QuaternionAlgebra
from cliffcomp.errors import UnsupportedInputError
from cliffcomp.linalg import inverse, solve
from cliffcomp.qpair import QPair, pair_from_ell, pair_from_form, pair_on_quaternion_tensor
from cliffcomp.quadform import QuadraticSpace
from cliffcomp.scalars import QQ, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)


def ref_f(F, rows, values, s):
    """f(s) for the linear form with rows[t] -> values[t]: one solve of s
    over the rows, then the values summed with its coefficients."""
    sol = solve(F, rows, s)
    assert sol is not None
    acc = F.zero()
    for t, c in sol.items():
        acc = F.add(acc, F.mul(c, values[t]))
    return acc


def gamma_set(q, phi):
    """The Gamma elements of the adjoint pair and their f-values:
    phi(e_i (x) e_i) -> q(e_i), phi(e_i (x) e_j) + phi(e_j (x) e_i) -> b_q(e_i, e_j)."""
    F, n, B = q.F, q.n, q.polar_matrix()
    rows, values = [], []
    for i in range(n):
        rows.append(phi(i, i).c)
        values.append(q.q([F.one() if t == i else F.zero() for t in range(n)]))
    for i in range(n):
        for j in range(i + 1, n):
            rows.append((phi(i, j) + phi(j, i)).c)
            values.append(B[i][j])
    return rows, values


def regular_forms(F, n, rng, count=3):
    """Seeded regular forms with random upper-triangular coefficients."""
    out = []
    while len(out) < count:
        M = [[F.from_int(rng.randint(-3, 3)) if i <= j else F.zero() for j in range(n)]
             for i in range(n)]
        q = QuadraticSpace(F, M)
        if q.regularity() == "regular":
            out.append(q)
    return out


@pytest.mark.parametrize(
    "F,n",
    [(QQ, 2), (QQ, 3), (QQ, 4), (F3, 2), (F3, 3), (F3, 4), (F2, 2), (F2, 4)],
    ids=str,
)
def test_f_matches_one_solve_per_row(F, n):
    rng = random.Random(100 * F.char + n)
    for q in regular_forms(F, n, rng):
        pair, aux = pair_from_form(q)
        rows, values = gamma_set(q, aux["phi"])
        assert pair.f_on_sym == [ref_f(F, rows, values, row) for row in pair.sym_rows]
        A, sigma = pair.A, pair.sigma
        for i in range(A.dim):
            x = A.basis_el(i)
            s = x + sigma.apply(x)
            assert pair.f(s) == ref_f(F, pair.sym_rows, pair.f_on_sym, s.c)
            if sigma.apply(x) != x:
                with pytest.raises(UnsupportedInputError):
                    pair.f(x)


def ref_adjoint_sigma_images(q):
    """The adjoint involution X -> B^-1 X^t B on End(V), written out on
    the matrix units: B^-1 E_cr B has the entries (B^-1)_ic B[r][j]."""
    F, n, B = q.F, q.n, q.polar_matrix()
    Binv = inverse(F, q.polar_columns())
    imgs = []
    for r in range(n):
        for c in range(n):
            out = {}
            for i, bic in Binv[c].items():
                for j in range(n):
                    v = F.mul(bic, B[r][j])
                    if not F.is_zero(v):
                        out[i * n + j] = v
            imgs.append(out)
    return imgs


def _pair_forms():
    """Diagonal and Gram forms over Q and GF(3), n = 2..5, and regular Gram
    forms over GF(2), n = 2 and 4."""
    forms = []
    for F in (QQ, F3):
        for n in range(2, 6):
            forms.append(QuadraticSpace.diagonal(F, [F.from_int(e) for e in (1, 2, -1, 1, 2)[:n]]))
            forms.extend(regular_forms(F, n, random.Random(10 * F.char + n), count=2))
    for n in (2, 4):
        forms.extend(regular_forms(F2, n, random.Random(n), count=2))
    return forms


@pytest.mark.parametrize("q", _pair_forms(), ids=str)
def test_the_adjoint_involution_matches_the_written_out_one(q):
    pair, _ = pair_from_form(q)
    assert pair.sigma.images == ref_adjoint_sigma_images(q)


def ref_half_trd_pair(A, sigma, label):
    """The canonical pair in characteristic not 2, f = Trd/2 and l = 1/2,
    written out."""
    F = A.F
    half = F.inv(F.from_int(2))
    sym = sigma.sym_basis()
    f_vals = [F.mul(half, A.trd(El(A, row))) for row in sym]
    ell = El(A, {k: F.mul(half, v) for k, v in A.one().c.items()})
    pair = QPair(A, sigma, sym, f_vals, ell, label=label)
    pair.verify()
    return pair


def _half_pairs():
    """Quaternion tensor pairs over Q and GF(3), and adjoint involutions of
    forms over Q and GF(3)."""
    out = []
    for F, symbols in ((QQ, [(-1, -1), (2, 5)]), (QQ, [(1, 1), (-1, 3)]), (F3, [(1, 1), (2, 2)]),
                       (F3, [(1, 2), (2, 1)])):
        (a1, b1), (a2, b2) = [(F.from_int(a), F.from_int(b)) for a, b in symbols]
        pair = pair_on_quaternion_tensor(QuaternionAlgebra(F, a1, b1), QuaternionAlgebra(F, a2, b2))
        out.append(pytest.param(pair, id=f"tensor-{F}-{symbols}"))
    for q in _pair_forms():
        if q.F.char != 2:
            out.append(pytest.param(pair_from_form(q)[0], id=f"adjoint-{q}"))
    return out


@pytest.mark.parametrize("pair", _half_pairs())
def test_the_pair_at_one_half_is_half_the_trace(pair):
    F, A = pair.A.F, pair.A
    ref = ref_half_trd_pair(A, pair.sigma, pair.label)
    got = pair_from_ell(A, pair.sigma, F.inv(F.from_int(2)) * A.one(), pair.label)
    assert (got.sym_rows, got.f_on_sym, got.ell.c) == (ref.sym_rows, ref.f_on_sym, ref.ell.c)
    if pair.label.endswith(",can)"):
        assert (pair.sym_rows, pair.f_on_sym, pair.ell.c) == (ref.sym_rows, ref.f_on_sym, ref.ell.c)
