"""Algebra constructors, involutions, centers, homomorphisms."""

import math
from fractions import Fraction

import pytest

from cliffcomp import algebra
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
    signed_sums,
    square_unit,
    swap_involution,
    transpose_involution,
)
from cliffcomp.clifford import even_clifford
from cliffcomp.compose import etale_algebra
from cliffcomp.errors import CertificationError, UnsupportedInputError
from cliffcomp.linalg import rref
from cliffcomp.quadform import QuadraticSpace
from cliffcomp.scalars import QQ, PrimeField, quad_ext_info


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
    C = corner_algebra(T, e, label="corner")
    assert C.dim == 4
    C.verify_associative()
    assert len(center_basis(C)) == 1
    # restriction of gamma (x) conj fixes e, so it restricts to the corner
    conj = Involution(Et, [{0: frac(1)}, {1: frac(-1)}])
    s = involution_on_tensor(T, Q.gamma(), conj)
    assert s.apply(e) != e  # conj swaps the idempotents here
    s2 = involution_on_tensor(T, Q.gamma(), Involution(Et, [{0: frac(1)}, {1: frac(1)}]))
    assert s2.apply(e) == e
    rs = restrict_involution(C, s2)
    assert involution_type(C, rs) == "symplectic"


def test_split_quaternion_iso_matrix():
    # (1, 1) is split: i -> diag(1, -1), j -> [[0,1],[1,0]]
    Q = QuaternionAlgebra(QQ, frac(1), frac(1))
    M = MatrixAlgebra(FieldAlgebra(QQ), 2)
    E = lambda r, c: M.basis_el(M._idx(r, c, 0))
    im_i = E(0, 0) - E(1, 1)
    im_j = E(0, 1) + E(1, 0)
    assert Q.generators() == [1, 2]
    phi = hom_on_generators(Q, M, [im_i, im_j])
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


# ---------------------------------------------------------------------------
# one cached center and one degree, against the per-class versions they
# replaced

def ref_center_basis(A):
    """The per-class centers that the single commutant replaced: each
    constructor's center assembled from its factors' centers.  Other
    algebras (explicit tables, corners, C0) took the commutant already."""
    F = A.F
    zero = F.zero()
    if isinstance(A, FieldAlgebra):
        return [[F.one()]]
    if isinstance(A, QuaternionAlgebra):
        return [A.one().dense()]
    if isinstance(A, MatrixAlgebra):
        out = []
        for z in ref_center_basis(A.base):
            v = [zero] * A.dim
            for r in range(A.n):
                for t, c in enumerate(z):
                    if not F.is_zero(c):
                        v[A._idx(r, r, t)] = c
            out.append(v)
        return out
    if isinstance(A, TensorAlgebra):
        out = []
        for za in ref_center_basis(A.A):
            for zb in ref_center_basis(A.B):
                v = [zero] * A.dim
                for i, ca in enumerate(za):
                    for j, cb in enumerate(zb):
                        if not F.is_zero(ca) and not F.is_zero(cb):
                            v[A.idx(i, j)] = F.mul(ca, cb)
                out.append(v)
        return out
    if isinstance(A, OppositeAlgebra):
        return ref_center_basis(A.A)
    if isinstance(A, ProductAlgebra):
        return ([list(z) + [zero] * A.B.dim for z in ref_center_basis(A.A)]
                + [[zero] * A.A.dim + list(z) for z in ref_center_basis(A.B)])
    return [A.el(z).dense() for z in center_basis(A)]


def ref_deg(A):
    """The per-class degree overrides that Algebra.deg replaced."""
    if isinstance(A, MatrixAlgebra):
        d = ref_deg(A.base)
        return None if d is None else A.n * d
    if isinstance(A, TensorAlgebra):
        da, db = ref_deg(A.A), ref_deg(A.B)
        return None if da is None or db is None else da * db
    if isinstance(A, OppositeAlgebra):
        return ref_deg(A.A)
    d = math.isqrt(A.dim)
    return d if d * d == A.dim else None


def _split_corner(q):
    """A corner e C0 e of an even form with split center, as compose takes it."""
    _, C0, _, _, _ = even_clifford(q)
    et, e = center_structure(C0)
    assert et.split
    return corner_algebra(C0, e)


def center_corpus():
    """Every algebra class that compose builds, over Q, GF(3) and GF(2)."""
    HQ = QuaternionAlgebra(QQ, frac(-1), frac(-1))
    Q3 = QuaternionAlgebra(F3, 1, 2)
    Q2 = QuaternionAlgebra(F2, 1, 1)
    cornerQ = _split_corner(QuadraticSpace.diagonal(QQ, [frac(1), frac(-1), frac(2), frac(-2)]))
    corner3 = _split_corner(QuadraticSpace.diagonal(F3, [1, 1, 1, 1]))
    # x1 x2 + x3 x4 has Arf invariant 0, so its C0 has a split center
    corner2 = _split_corner(QuadraticSpace(F2, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]))
    _, C0odd, _, _, _ = even_clifford(QuadraticSpace.diagonal(QQ, [frac(1), frac(2), frac(3)]))
    S, _ = etale_algebra(quad_ext_info(QQ, frac(-1)))
    S3, _ = etale_algebra(quad_ext_info(F3, 2))
    return [
        FieldAlgebra(QQ), HQ, Q3, Q2, C0odd, cornerQ, corner3, corner2, S,
        MatrixAlgebra(FieldAlgebra(F3), 3),
        MatrixAlgebra(HQ, 2), MatrixAlgebra(Q3, 2), MatrixAlgebra(cornerQ, 2),
        MatrixAlgebra(corner2, 2),
        TensorAlgebra(cornerQ, HQ), TensorAlgebra(corner3, Q3), TensorAlgebra(C0odd, HQ),
        TensorAlgebra(C0odd, S), TensorAlgebra(Q3, S3), TensorAlgebra(HQ, QuaternionAlgebra(QQ, frac(2), frac(5))),
        OppositeAlgebra(HQ), OppositeAlgebra(cornerQ),
        ProductAlgebra(C0odd, OppositeAlgebra(C0odd)), ProductAlgebra(corner2, OppositeAlgebra(corner2)),
        ProductAlgebra(Q3, OppositeAlgebra(Q3)),
    ]


def rank(F, vectors):
    """Rank of vectors given densely (the references) or sparsely (center_basis)."""
    return rref(F, [v if isinstance(v, dict) else dict(enumerate(v)) for v in vectors]).rank


def test_cached_center_spans_the_structured_center():
    corpus = center_corpus()
    assert {type(A).__name__ for A in corpus} >= {
        "FieldAlgebra", "QuaternionAlgebra", "MatrixAlgebra", "TensorAlgebra",
        "OppositeAlgebra", "ProductAlgebra", "ExplicitAlgebra", "EvenCliffordAlgebra"}
    for A in corpus:
        got, ref = center_basis(A), ref_center_basis(A)
        F = A.F
        assert len(got) == len(ref) == rank(F, got) == rank(F, ref) == rank(F, got + ref), A


def test_degree_matches_the_per_class_overrides():
    for A in center_corpus():
        assert A.deg == ref_deg(A), A


def test_center_is_computed_once(monkeypatch):
    calls = []
    real = algebra.kernel

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algebra, "kernel", counting)
    A = MatrixAlgebra(QuaternionAlgebra(QQ, frac(-1), frac(3)), 2)
    first = center_basis(A)
    assert len(calls) == 1 and len(first) == 1
    assert center_basis(A) is first
    assert len(calls) == 1


def test_trace_needs_a_trace_vector():
    # no tr(L_x)/deg fallback: an algebra without trd_vec has no trace
    t = {(0, 0): {0: frac(1)}, (0, 1): {1: frac(1)}, (1, 0): {1: frac(1)}, (1, 1): {0: frac(2)}}
    A = ExplicitAlgebra(QQ, 2, t, {0: frac(1)})
    with pytest.raises(UnsupportedInputError):
        A.trd(A.one())


def test_element_repr_names_basis_indices():
    Q = QuaternionAlgebra(QQ, frac(-1), frac(-1))
    assert repr(Q.one() + 2 * Q.basis_el(3)) == "1*e0 + 2*e3"
    assert repr(Q.zero()) == "0"


def test_signed_sums_order():
    # by subset size, then lexicographically, + before -: the first k^2
    # items are the vectors, then v_i + v_j and v_i - v_j for i < j
    assert list(signed_sums([1, 10, 100])) == [
        1, 10, 100, 11, -9, 101, -99, 110, -90, 111, -89, 91, -109]


def test_square_unit_stops_after_k_squared_candidates(monkeypatch):
    # in F[x1..x4]/(x_i x_j) every vector squares to 0, so no signed sum
    # qualifies; the search stops after the 16 the theorem covers instead
    # of walking all 40
    k, one = 4, frac(1)
    table = {(0, 0): {0: one}}
    for i in range(1, k + 1):
        table[(0, i)] = table[(i, 0)] = {i: one}
    A = ExplicitAlgebra(QQ, k + 1, table, {0: one})
    tried = []
    real = algebra.as_scalar
    monkeypatch.setattr(algebra, "as_scalar", lambda A, x: tried.append(x) or real(A, x))
    with pytest.raises(CertificationError):
        square_unit(A, [A.basis_el(i) for i in range(1, k + 1)], "unit")
    assert len(tried) == k * k
