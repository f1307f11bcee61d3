"""Exact linear algebra, against a dense Gauss-Jordan reference.

linalg takes a map as the list of its column images (sparse dicts) and
returns sparse dicts; the tests hold matrices densely and convert only at
that boundary."""

import random
from fractions import Fraction

import pytest

from cliffcomp.linalg import SparseEchelon, apply_cols, axpy, inverse, kernel, rref, solve
from cliffcomp.scalars import QQ, ExtField, PrimeField


# ---------------------------------------------------------------------------
# reference: dense Gauss-Jordan elimination, pivoting on the first nonzero
# entry of each column

def mat_identity(F, n):
    return [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]


def mat_mul(F, A, B):
    return [[_dot(F, row, col) for col in zip(*B)] for row in A]


def mat_vec(F, A, v):
    return [_dot(F, row, v) for row in A]


def _dot(F, row, v):
    acc = F.zero()
    for a, b in zip(row, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


def ref_rref(F, A):
    R = [list(row) for row in A]
    if not R:
        return R, [], 0
    rows, cols = len(R), len(R[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not F.is_zero(R[i][c])), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, x) for x in R[r]]
        for i in range(rows):
            if i != r and not F.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots, r


def ref_kernel(F, A):
    if not A:
        return []
    R, pivots, r = ref_rref(F, A)
    cols = len(A[0])
    basis = []
    for fc in [c for c in range(cols) if c not in pivots]:
        v = [F.zero()] * cols
        v[fc] = F.one()
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(R[i][fc])
        basis.append(v)
    return basis


def ref_solve(F, A, b):
    if not A:
        return None if any(not F.is_zero(x) for x in b) else []
    R, pivots, r = ref_rref(F, [list(row) + [bv] for row, bv in zip(A, b)])
    cols = len(A[0])
    if cols in pivots:
        return None
    x = [F.zero()] * cols
    for i, pc in enumerate(pivots):
        x[pc] = R[i][cols]
    return x


def ref_inv_matrix(F, A):
    n = len(A)
    R, pivots, r = ref_rref(F, [list(row) + list(idr) for row, idr in zip(A, mat_identity(F, n))])
    if r < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R[:n]]


def ref_rank(F, A):
    return ref_rref(F, A)[2]


def ref_span_contains(F, basis, v):
    if not basis:
        return all(F.is_zero(x) for x in v)
    return ref_rank(F, basis) == ref_rank(F, basis + [v])


# ---------------------------------------------------------------------------
# the boundary: dense rows in, the column dicts linalg takes, dense out

def columns(F, A):
    m = len(A[0]) if A else 0
    return [{i: row[j] for i, row in enumerate(A) if not F.is_zero(row[j])} for j in range(m)]


def sparse(F, v):
    return {i: x for i, x in enumerate(v) if not F.is_zero(x)}


def dense(F, x, n):
    return [x.get(i, F.zero()) for i in range(n)]


def dense_kernel(F, A):
    m = len(A[0]) if A else 0
    return [dense(F, v, m) for v in kernel(F, columns(F, A), m)]


def dense_solve(F, A, b):
    cols = columns(F, A)
    x = solve(F, cols, sparse(F, b))
    return None if x is None else dense(F, x, len(cols))


def dense_inverse(F, A):
    inv = inverse(F, columns(F, A))
    if inv is None:
        return None
    return [[inv[c].get(p, F.zero()) for c in range(len(A))] for p in range(len(A))]


def dense_rref(F, A):
    """(R, pivots, rank) with R padded by zero rows to A's shape."""
    if not A:
        return [], [], 0
    m = len(A[0])
    ech = rref(F, [sparse(F, row) for row in A])
    pivots = sorted(ech.rows)
    R = [dense(F, ech.rows[p], m) for p in pivots] + [[F.zero()] * m for _ in range(len(A) - len(pivots))]
    return R, pivots, len(pivots)


def rank(F, A):
    return rref(F, [sparse(F, row) for row in A]).rank


def span_contains(F, basis, v):
    return rref(F, [sparse(F, row) for row in basis]).contains(sparse(F, v))


FIELDS = [QQ, PrimeField(5), PrimeField(2)]


def rand_matrix(F, rng, n, m):
    if F is QQ:
        return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]
    return [[rng.randrange(F.p) for _ in range(m)] for _ in range(n)]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_inverse_roundtrip(F):
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            A = rand_matrix(F, rng, n, n)
            Ainv = dense_inverse(F, A)
            if Ainv is None:
                assert rank(F, A) < n
                continue
            assert mat_mul(F, A, Ainv) == mat_identity(F, n)
            assert mat_mul(F, Ainv, A) == mat_identity(F, n)
            assert rank(F, A) == n


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_kernel_and_rank(F):
    rng = random.Random(11)
    for _ in range(8):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        A = rand_matrix(F, rng, n, m)
        ker = dense_kernel(F, A)
        assert rank(F, A) + len(ker) == m
        for v in ker:
            assert all(F.is_zero(x) for x in mat_vec(F, A, v))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_solve_consistent(F):
    rng = random.Random(3)
    for _ in range(8):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(F, rng, n, m)
        x0 = rand_matrix(F, rng, 1, m)[0]
        b = mat_vec(F, A, x0)
        x = dense_solve(F, A, b)
        assert x is not None
        assert mat_vec(F, A, x) == b


def test_solve_inconsistent():
    A = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert dense_solve(QQ, A, [Fraction(1), Fraction(2)]) is None


def test_rref_idempotent():
    A = [[Fraction(2), Fraction(4), Fraction(1)], [Fraction(1), Fraction(2), Fraction(3)]]
    R, piv, r = dense_rref(QQ, A)
    R2, piv2, r2 = dense_rref(QQ, R)
    assert (R, piv, r) == (R2, piv2, r2)
    assert piv == [0, 2] and r == 2


def test_span_contains():
    basis = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(1)]]
    assert span_contains(QQ, basis, [Fraction(2), Fraction(3), Fraction(5)])
    assert not span_contains(QQ, basis, [Fraction(0), Fraction(0), Fraction(1)])


def test_sparse_echelon_matches_dense_rank():
    rng = random.Random(9)
    F = QQ
    cols = list("abcdef")
    rows_dense = []
    ech = SparseEchelon(F, key=cols.index)
    for _ in range(10):
        row = {c: Fraction(rng.randint(-3, 3)) for c in cols if rng.random() < 0.6}
        row = {c: v for c, v in row.items() if v}
        rows_dense.append([row.get(c, Fraction(0)) for c in cols])
        ech.insert(dict(row))
    assert ech.rank == ref_rank(F, rows_dense)
    # membership agrees with the dense reference
    probe = {"a": Fraction(1), "c": Fraction(-2)}
    dense_probe = [probe.get(c, Fraction(0)) for c in cols]
    assert ech.contains(probe) == ref_span_contains(F, rows_dense, dense_probe)


def test_sparse_echelon_reduced_invariant():
    # every stored row contains no pivot of another row
    rng = random.Random(2)
    F = PrimeField(5)
    ech = SparseEchelon(F, key=lambda c: c)
    for _ in range(15):
        row = {c: rng.randrange(5) for c in range(8) if rng.random() < 0.5}
        ech.insert(row)
    pivots = ech.pivots
    for p, row in ech.rows.items():
        assert row[p] == F.one()
        assert all(c == p for c in row if c in pivots)


def test_sparse_echelon_residue_semantics():
    F = QQ
    ech = SparseEchelon(F)
    assert ech.insert({0: Fraction(2), 1: Fraction(2)}) is not None
    # a multiple of the first row reduces to nothing
    assert ech.insert({0: Fraction(3), 1: Fraction(3)}) is None
    res = ech.insert({1: Fraction(1)})
    assert res == {1: Fraction(1)}
    assert ech.rank == 2
    assert ech.contains({0: Fraction(7), 1: Fraction(-4)})


def _rand_entry(F, rng):
    if F is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
    if isinstance(F, ExtField):
        return tuple(rng.randrange(F.p) for _ in range(F.k))
    return rng.randrange(F.p)


def _shaped_matrices(F, rng):
    """Square, wide, tall, rank-deficient and empty matrices."""
    out = [[], [[]], [[F.zero()] * 3], [[F.zero()] * 2 for _ in range(2)]]
    for _ in range(12):
        for n, m in ((3, 3), (4, 4), (2, 5), (5, 2), (1, 4), (4, 1)):
            A = [[_rand_entry(F, rng) for _ in range(m)] for _ in range(n)]
            out.append(A)
            if n > 1:
                # rank-deficient: one row a combination of two others
                c1, c2 = _rand_entry(F, rng), _rand_entry(F, rng)
                A = [list(row) for row in A]
                A[-1] = [F.add(F.mul(c1, x), F.mul(c2, y)) for x, y in zip(A[0], A[1])]
                out.append(A)
    return out


@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(3), ExtField(3, 2)], ids=repr)
def test_matches_dense_reference(F):
    """Same echelon, same kernel vectors in the same order, same solutions
    and inverses as dense Gauss-Jordan."""
    rng = random.Random(17)
    for A in _shaped_matrices(F, rng):
        assert dense_rref(F, A) == ref_rref(F, A), A
        assert rank(F, A) == ref_rank(F, A)
        assert dense_kernel(F, A) == ref_kernel(F, A), A
        cols = len(A[0]) if A else 0
        x0 = [_rand_entry(F, rng) for _ in range(cols)]
        for b in (mat_vec(F, A, x0), [_rand_entry(F, rng) for _ in A]):
            assert dense_solve(F, A, b) == ref_solve(F, A, b), (A, b)
        for v in A[:1] + [[_rand_entry(F, rng) for _ in range(cols)]]:
            assert span_contains(F, A, v) == ref_span_contains(F, A, v)
        if len(A) == cols:
            assert dense_inverse(F, A) == ref_inv_matrix(F, A), A


# ---------------------------------------------------------------------------
# sparse coordinates: axpy and apply_cols against dense sums

# word labels, as the pair quotient keys its coordinates
WORDS = [(), (0,), (1,), (0, 1), (1, 0), (1, 1, 0)]


def _no_zero(F, x):
    return not any(F.is_zero(v) for v in x.values())


@pytest.mark.parametrize("F", [QQ, PrimeField(2), PrimeField(3), ExtField(3, 2)], ids=repr)
def test_axpy_and_apply_cols_match_dense(F):
    rng = random.Random(29)
    for labels in (range(len(WORDS)), WORDS):
        def keyed(v):
            return {labels[i]: x for i, x in enumerate(v) if not F.is_zero(x)}

        for _ in range(30):
            n = rng.randint(1, len(WORDS))
            a, x = ([_rand_entry(F, rng) for _ in range(n)] for _ in range(2))
            c = _rand_entry(F, rng)
            acc = keyed(a)
            out = axpy(F, acc, c, keyed(x))
            assert out is acc
            assert out == keyed([F.add(ai, F.mul(c, xi)) for ai, xi in zip(a, x)])
            assert _no_zero(F, out)
            # full cancellation and a zero multiple
            assert axpy(F, keyed(x), F.neg(F.one()), keyed(x)) == {}
            assert axpy(F, keyed(a), F.zero(), keyed(x)) == keyed(a)
            assert axpy(F, {}, F.zero(), keyed(x)) == {}

            m = rng.randint(0, 5)
            A = [[_rand_entry(F, rng) for _ in range(m)] for _ in range(n)]
            v = [_rand_entry(F, rng) for _ in range(m)]
            cols = [keyed([row[j] for row in A]) for j in range(m)]
            y = apply_cols(F, cols, sparse(F, v))
            assert y == keyed(mat_vec(F, A, v))
            assert _no_zero(F, y)
