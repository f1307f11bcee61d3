"""Algebra constructors, involutions, centers, homomorphisms."""

from fractions import Fraction

import pytest

from cliffcomp.algebra import (
    AlgebraHom,
    ExplicitAlgebra,
    FieldAlgebra,
    Involution,
    MatrixAlgebra,
    OppositeAlgebra,
    ProductAlgebra,
    QuaternionAlgebra,
    TensorAlgebra,
    adjoint_involution,
    alg_inverse,
    center_basis,
    center_structure,
    corner_algebra,
    hom_on_generators,
    involution_on_tensor,
    involution_type,
    restrict_involution,
    swap_involution,
    transpose_involution,
)
from cliffcomp.errors import CertificationError, UnsupportedInputError
from cliffcomp.scalars import QQ, PrimeField


F2 = PrimeField(2)
F3 = PrimeField(3)


def frac(n, d=1):
    return Fraction(n, d)


def test_quaternion_hamilton_relations():
    Q = QuaternionAlgebra(QQ, frac(-1), frac(-1))
    one, i, j, k = (Q.basis_el(t) for t in range(4))
    assert i * i == -one and j * j == -one and k * k == -one
    assert i * j == k and j * i == -k
    assert i * j * k == -one
    x = one + 2 * i + 3 * j + 4 * k
    g = Q.gamma()
    assert x * g(x) == 30 * one
    assert Q.trd(x) == 2
    assert involution_type(Q, g) == "symplectic"


def test_quaternion_char2_relations():
    Q = QuaternionAlgebra(F2, 1, 1)
    one, i, j, k = (Q.basis_el(t) for t in range(4))
    assert i * i == i + one
    assert j * j == one
    assert i * j == k
    assert j * i == k + j
    g = Q.gamma()
    for t in range(4):
        x = Q.basis_el(t)
        n = x * g(x)
        # reduced norm lands in the base field
        assert n.c.keys() <= {0}
    assert involution_type(Q, g) == "symplectic"
    assert Q.trd(i) == 1 and Q.trd(one) == 0


def test_explicit_algebra_rejects_bad_table():
    # a two-dimensional "algebra" with a non-associative table
    F = QQ
    t = {
        (0, 0): {0: frac(1)},
        (0, 1): {1: frac(1)},
        (1, 0): {1: frac(1)},
        (1, 1): {0: frac(1), 1: frac(1)},
    }
    ExplicitAlgebra(F, 2, t, {0: frac(1)})  # fine: commutative quadratic etale
    bad = dict(t)
    bad[(1, 1)] = {0: frac(1)}
    bad[(1, 0)] = {0: frac(1)}
    with pytest.raises(CertificationError):
        ExplicitAlgebra(F, 2, bad, {0: frac(1)})


def test_matrix_algebra_units():
    M = MatrixAlgebra(FieldAlgebra(QQ), 2)
    E = lambda r, c: M.basis_el(M._idx(r, c, 0))
    assert E(0, 1) * E(1, 0) == E(0, 0)
    assert E(0, 1) * E(0, 1) == M.zero()
    assert M.one() == E(0, 0) + E(1, 1)
    assert M.trd(E(0, 0)) == 1 and M.trd(E(0, 1)) == 0
    assert M.deg == 2
    tr = transpose_involution(M)
    assert involution_type(M, tr) == "orthogonal"


def test_matrix_over_quaternion():
    Q = QuaternionAlgebra(QQ, frac(-1), frac(-1))
    M = MatrixAlgebra(Q, 2)
    assert M.dim == 16 and M.deg == 4
    assert len(center_basis(M)) == 1
    x = M.from_matrix([[Q.basis_el(1), Q.zero()], [Q.zero(), Q.basis_el(1)]])
    y = M.to_matrix(x)
    assert y[0][0] == Q.basis_el(1) and y[0][1] == Q.zero()
    assert M.trd(x) == QQ.zero()


def test_tensor_of_quaternions():
    Q1 = QuaternionAlgebra(QQ, frac(-1), frac(-1))
    Q2 = QuaternionAlgebra(QQ, frac(2), frac(5))
    T = TensorAlgebra(Q1, Q2)
    assert T.dim == 16 and T.deg == 4
    assert T.brauer_symbols == [(frac(-1), frac(-1)), (frac(2), frac(5))]
    s = involution_on_tensor(T, Q1.gamma(), Q2.gamma())
    s.verify()
    # symplectic (x) symplectic = orthogonal
    assert involution_type(T, s) == "orthogonal"
    assert len(center_basis(T)) == 1


def test_adjoint_involution_hermitian_vs_skew():
    Q = QuaternionAlgebra(QQ, frac(-1), frac(-1))
    g = Q.gamma()
    M = MatrixAlgebra(Q, 2)
    I2 = [[Q.one(), Q.zero()], [Q.zero(), Q.one()]]
    adj = adjoint_involution(M, I2, base_inv=g)
    assert involution_type(M, adj) == "symplectic"
    # skew form: off-diagonal 1, -1 over the field base gives the symplectic
    # adjoint on M_2(F)
    MF = MatrixAlgebra(FieldAlgebra(QQ), 2)
    G = [[MF.base.zero(), MF.base.one()], [-MF.base.one(), MF.base.zero()]]
    adj2 = adjoint_involution(MF, G)
    assert involution_type(MF, adj2) == "symplectic"


def test_opposite_and_product():
    Q = QuaternionAlgebra(QQ, frac(2), frac(3))
    Op = OppositeAlgebra(Q)
    i, j = Q.basis_el(1), Q.basis_el(2)
    io, jo = Op.basis_el(1), Op.basis_el(2)
    assert (io * jo).c == (j * i).c
    P = ProductAlgebra(Q, Op)
    assert P.dim == 8
    assert len(center_basis(P)) == 2
    sw = swap_involution(P)
    assert involution_type(P, sw) == "unitary"


def test_center_structure_split_rational():
    # F[x]/(x^2 - 1): split etale, idempotents (1 +- x)/2
    F = QQ
    t = {
        (0, 0): {0: frac(1)},
        (0, 1): {1: frac(1)},
        (1, 0): {1: frac(1)},
        (1, 1): {0: frac(1)},
    }
    A = ExplicitAlgebra(F, 2, t, {0: frac(1)}, label="F[x]/(x^2-1)")
    et, e = center_structure(A)
    assert et.split
    assert e is not None and A.mul(e, e) == e
    assert e.c in ({0: frac(1, 2), 1: frac(1, 2)}, {0: frac(1, 2), 1: frac(-1, 2)})


def test_center_structure_field_case():
    F = QQ
    t = {
        (0, 0): {0: frac(1)},
        (0, 1): {1: frac(1)},
        (1, 0): {1: frac(1)},
        (1, 1): {0: frac(2)},
    }
    A = ExplicitAlgebra(F, 2, t, {0: frac(1)}, label="Q(sqrt2)")
    et, e = center_structure(A)
    assert not et.split and e is None
    assert QQ.is_square(et.datum * frac(2))


def test_center_structure_char2():
    # GF(2)[x]/(x^2 + x) is split with idempotent x
    t = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (1, 0): {1: 1},
        (1, 1): {1: 1},
    }
    A = ExplicitAlgebra(F2, 2, t, {0: 1}, label="F2[x]/(x^2+x)")
    et, e = center_structure(A)
    assert et.split
    assert e is not None and A.mul(e, e) == e


def test_corner_extraction():
    # Q (x) (F x F) splits into two corners isomorphic to Q
    Q = QuaternionAlgebra(QQ, frac(-1), frac(-1))
    t = {
        (0, 0): {0: frac(1)},
        (0, 1): {1: frac(1)},
        (1, 0): {1: frac(1)},
        (1, 1): {0: frac(1)},
    }
    Et = ExplicitAlgebra(QQ, 2, t, {0: frac(1)})
    T = TensorAlgebra(Q, Et)
    et, e = center_structure(T)
    assert et.split and e is not None
    C, embed, project = corner_algebra(T, e, label="corner")
    assert C.dim == 4
    C.verify_associative()
    assert len(center_basis(C)) == 1
    # restriction of gamma (x) conj fixes e, so it restricts to the corner
    conj = Involution(Et, [{0: frac(1)}, {1: frac(-1)}])
    s = involution_on_tensor(T, Q.gamma(), conj)
    assert s.apply(e) != e  # conj swaps the idempotents here
    s2 = involution_on_tensor(T, Q.gamma(), Involution(Et, [{0: frac(1)}, {1: frac(1)}]))
    assert s2.apply(e) == e
    rs = restrict_involution(C, embed, project, s2)
    assert involution_type(C, rs) == "symplectic"


def test_split_quaternion_iso_matrix():
    # (1, 1) is split: i -> diag(1, -1), j -> [[0,1],[1,0]]
    Q = QuaternionAlgebra(QQ, frac(1), frac(1))
    M = MatrixAlgebra(FieldAlgebra(QQ), 2)
    E = lambda r, c: M.basis_el(M._idx(r, c, 0))
    im_i = E(0, 0) - E(1, 1)
    im_j = E(0, 1) + E(1, 0)
    phi = hom_on_generators(Q, M, [1, 2], [im_i, im_j])
    phi.verify()
    assert phi.is_bijective()
    # gamma corresponds to the symplectic involution on M_2
    G = [[M.base.zero(), M.base.one()], [-M.base.one(), M.base.zero()]]
    adj = adjoint_involution(M, G)
    assert phi.respects(Q.gamma(), adj)


def test_alg_inverse():
    Q = QuaternionAlgebra(QQ, frac(-1), frac(-1))
    one, i = Q.basis_el(0), Q.basis_el(1)
    x = one + 2 * i
    xi = alg_inverse(Q, x)
    assert xi is not None and x * xi == one
    Qs = QuaternionAlgebra(QQ, frac(1), frac(1))
    z = Qs.basis_el(0) + Qs.basis_el(1)  # (1+i)(1-i) = 0 in the split algebra
    assert alg_inverse(Qs, z) is None


def test_hom_injectivity_check():
    Q = QuaternionAlgebra(QQ, frac(-1), frac(-1))
    Ff = FieldAlgebra(QQ)
    # the zero-ish map 1 -> 1, everything else -> 0 is not a hom
    images = [{0: frac(1)}, {}, {}, {}]
    phi = AlgebraHom(Q, Ff, images)
    with pytest.raises(CertificationError):
        phi.verify()


def test_quaternion_gf3():
    Q = QuaternionAlgebra(F3, 1, 1)
    g = Q.gamma()
    assert involution_type(Q, g) == "symplectic"
    # over a finite field every quaternion algebra splits; check via an
    # explicit zero divisor search
    found = False
    for a0 in range(3):
        for a1 in range(3):
            x = Q.el({0: a0, 1: a1, 2: 1})
            if alg_inverse(Q, x) is None and not x.is_zero():
                found = True
    assert found
