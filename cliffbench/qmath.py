"""Exact arithmetic the benchmark does on its own, apart from cliffcomp.

Everything here works on plain ints and Fractions and on the benchmark's
JSON form descriptions, so the checks and the input filters stay fixed
whatever the program does.  Forms are upper-triangular coefficient
matrices M (q(x) = sum_{i <= j} M_ij x_i x_j) over Q or GF(p).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# Values the program factors by trial division must stay below this bound
# (cliffcomp.scalars.FACTOR_BOUND); larger ones are refused.
FACTOR_BOUND = 2**63

REAL = "inf"


def char_of(field: str) -> int:
    return 0 if field == "Q" else int(field[3:-1])


def coeff_matrix(form: dict) -> list:
    """The upper-triangular coefficient matrix of a {"diag"}/{"gram"} object."""
    if "diag" in form:
        d = form["diag"]
        return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    return [list(row) for row in form["gram"]]


def polar_matrix(M: list) -> list:
    n = len(M)
    return [[M[i][j] + M[j][i] for j in range(n)] for i in range(n)]


def q_value(M: list, x: list, p: int):
    n = len(M)
    acc = sum(M[i][j] * x[i] * x[j] for i in range(n) for j in range(i, n))
    return acc % p if p else acc


# ---------------------------------------------------------------------------
# elimination over Q (p = 0) or GF(p)

def _reduce(x, p: int):
    return x % p if p else Fraction(x)


def rank_and_det(A: list, p: int):
    """(rank, det) of a square matrix over Q (p = 0) or GF(p)."""
    R = [[_reduce(v, p) for v in row] for row in A]
    n = len(R)
    det = _reduce(1, p)
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if R[i][c]), None)
        if piv is None:
            det = _reduce(0, p)
            continue
        if piv != rank:
            R[rank], R[piv] = R[piv], R[rank]
            det = -det
        pv = R[rank][c]
        det = det * pv % p if p else det * pv
        inv = pow(pv, -1, p) if p else 1 / pv
        for i in range(rank + 1, n):
            if R[i][c]:
                f = R[i][c] * inv
                R[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(R[i], R[rank])]
        rank += 1
    return rank, (det % p if p else det)


def kernel_gf2(A: list) -> list:
    """Basis of the kernel of a square matrix over GF(2), by brute force."""
    n = len(A)
    return [list(x) for x in itertools.product((0, 1), repeat=n)
            if any(x) and all(sum(a * b for a, b in zip(row, x)) % 2 == 0 for row in A)]


def is_regular(field: str, M: list) -> bool:
    """Regular (nondegenerate polar form), or semi-regular for odd n in char 2."""
    p = char_of(field)
    B = polar_matrix(M)
    n = len(M)
    rank, _ = rank_and_det(B, p)
    if p != 2 or n % 2 == 0:
        return rank == n
    if rank != n - 1:
        return False
    rad = kernel_gf2(B)  # the radical is a line: one nonzero vector over GF(2)
    return len(rad) == 1 and q_value(M, rad[0], 2) == 1


def gram_matrix(M: list) -> list:
    """G = B/2 over Q, so that q(x) = x^T G x."""
    B = polar_matrix(M)
    return [[Fraction(v, 2) for v in row] for row in B]


def leading_minors(G: list) -> list:
    return [rank_and_det([row[:k] for row in G[:k]], 0)[1] for k in range(1, len(G) + 1)]


def ldl_diagonal(M: list) -> list:
    """d_k = D_k / D_(k-1) from the leading minors of the Gram matrix.

    When every leading minor is nonzero this is the unique LDL^T diagonal,
    which is what orthogonalising the standard basis in order produces.
    Returns None if some leading minor vanishes.
    """
    minors = leading_minors(gram_matrix(M))
    if any(m == 0 for m in minors):
        return None
    return [minors[0]] + [minors[k] / minors[k - 1] for k in range(1, len(minors))]


def signed_discriminant(field: str, M: list):
    """(-1)^(n(n-1)/2) det(G) over Q or GF(p), p odd."""
    p = char_of(field)
    n = len(M)
    if p:
        B = polar_matrix(M)
        _, d = rank_and_det(B, p)
        d = d * pow(pow(2, n, p), -1, p) % p  # det(B/2) = det(B) / 2^n
        return (-d) % p if (n * (n - 1) // 2) % 2 else d
    _, d = rank_and_det(gram_matrix(M), 0)
    return -d if (n * (n - 1) // 2) % 2 else d


def arf_gf2(M: list) -> int:
    """Arf invariant of a regular even-dimensional form over GF(2).

    Counted directly: q takes the value 0 on 2^(2m-1) + 2^(m-1) vectors
    when the Arf invariant is 0, and on 2^(2m-1) - 2^(m-1) when it is 1.
    """
    n = len(M)
    zeros = sum(1 for x in itertools.product((0, 1), repeat=n) if q_value(M, x, 2) == 0)
    return 0 if zeros > 1 << (n - 1) else 1


# ---------------------------------------------------------------------------
# square classes and Hilbert symbols over Q (Serre, A Course in Arithmetic, III)

def factor_small(n: int) -> dict:
    n = abs(n)
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def as_int_class(x) -> int:
    """An integer in the square class of a nonzero rational: num * den."""
    x = Fraction(x)
    return x.numerator * x.denominator


def squarefree(x) -> int:
    n = as_int_class(x)
    out = -1 if n < 0 else 1
    for p, e in factor_small(n).items():
        if e % 2:
            out *= p
    return out


def is_rational_square(x) -> bool:
    return squarefree(x) == 1


def _val(n: int, p: int):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def legendre(a: int, p: int) -> int:
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def hilbert(a, b, v) -> int:
    """(a, b)_v for nonzero rationals a, b and v = "inf" or a prime."""
    a, b = as_int_class(a), as_int_class(b)
    if v == REAL:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _val(a, v)
    beta, w = _val(b, v)
    if v != 2:
        e = alpha * beta * (v - 1) // 2
        s = (-1) ** (e % 2)
        if beta % 2:
            s *= legendre(u, v)
        if alpha % 2:
            s *= legendre(w, v)
        return s
    eps = lambda t: (t - 1) // 2 % 2
    omega = lambda t: (t * t - 1) // 8 % 2
    u, w = u % 8, w % 8
    return -1 if (eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)) % 2 else 1


def places_of(values) -> list:
    primes = set()
    for x in values:
        x = Fraction(x)
        primes |= set(factor_small(x.numerator)) | set(factor_small(x.denominator))
    primes.discard(2)
    return [REAL, 2] + sorted(primes)


def is_local_square(x, v) -> bool:
    """Is the nonzero rational x a square in Q_v?"""
    n = as_int_class(x)
    if v == REAL:
        return n > 0
    e, u = _val(n, v)
    if e % 2:
        return False
    return u % 8 == 1 if v == 2 else legendre(u, v) == 1


def clifford_support(diag: list) -> set:
    """Places where the Clifford invariant c(q) of <a_1, ..., a_n> is -1.

    c(q) = [C(q)] for even n and [C0(q)] for odd n, from the Hasse-Witt
    invariant s = prod_{i<j} (a_i, a_j) and d = prod a_i (Lam, Introduction
    to Quadratic Forms over Fields, V.3.20):
    n = 1, 2 mod 8: s;  3, 4: s (-1, -d);  5, 6: s (-1, -1);  7, 0: s (-1, d).
    """
    n = len(diag)
    d = Fraction(1)
    for a in diag:
        d *= a
    extra = {1: None, 2: None, 3: -d, 4: -d, 5: -1, 6: -1, 7: d, 0: d}[n % 8]
    out = set()
    for v in places_of(list(diag) + [2]):
        s = 1
        for i in range(n):
            for j in range(i + 1, n):
                s *= hilbert(diag[i], diag[j], v)
        if extra is not None:
            s *= hilbert(-1, extra, v)
        if s == -1:
            out.add(v)
    return out


def splitting_recursion_height(diag: list) -> int:
    """Largest numerator or denominator among the quaternion symbol entries
    of the classical splitting recursion, carried out without reducing to
    square classes:
    [C(<b1, ..., bm>)] = (b1, b2) [C(-b1 b2 <b3, ..., bm>)], and for odd n
    [C0(<a1, ..., an>)] = [C(<-a1 a2, ..., -a1 an>)].
    Entries above FACTOR_BOUND are where exact factoring gives up.
    """
    work = [Fraction(a) for a in diag]
    if len(work) % 2:
        a1 = work[0]
        work = [-a1 * a for a in work[1:]]
    top = 0
    while work:
        b1, b2 = work[0], work[1]
        top = max(top, *(abs(x.numerator) for x in (b1, b2)),
                  *(x.denominator for x in (b1, b2)))
        s = -b1 * b2
        work = [s * a for a in work[2:]]
    return top
