"""Quadratic pairs: an involution of the first kind together with a
linear form f on the symmetric elements satisfying f(x + sigma(x)) = Trd(x).

In characteristic not 2 the form is forced: f = Trd/2 on Sym.  In
characteristic 2 the pair is extra data; it is encoded by a splitting
element l with l + sigma(l) = 1 and Trd(l s) = f(s), which is also what
the Clifford quotient construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    Algebra,
    El,
    FieldAlgebra,
    Involution,
    MatrixAlgebra,
    QuaternionAlgebra,
    TensorAlgebra,
    involution_on_tensor,
    transpose_involution,
    twist_involution,
)
from .errors import CertificationError, UnsupportedInputError
from .linalg import axpy, inverse, rref, solve
from .quadform import QuadraticSpace


def _linear_form(F, rows: list, values: list, last):
    """The linear form with rows[t] -> values[t] on the span of the
    linearly independent dict rows, as a function of a dict that returns
    None off the span.

    One echelon of the rows, each carrying its value under the label last,
    which sorts after every other: reducing s clears its other labels and
    leaves -f(s) under last.
    """
    ech = rref(F, [{**row, last: v} for row, v in zip(rows, values)])

    def f(s: dict):
        res = ech.reduce(s)
        v = res.pop(last, F.zero())
        return None if res else F.neg(v)

    return f


@dataclass
class QPair:
    """An algebra with quadratic pair (A, sigma, f)."""

    A: Algebra
    sigma: Involution
    sym_rows: list
    f_on_sym: list
    ell: El
    label: str = "(A,sigma,f)"

    @cached_property
    def _f(self):
        return _linear_form(self.A.F, self.sym_rows, self.f_on_sym, self.A.dim)

    def f(self, s: El):
        """Evaluate f on a symmetric element."""
        v = self._f(s.c)
        if v is None:
            raise UnsupportedInputError("f evaluated off the symmetric subspace")
        return v

    def verify(self) -> None:
        """Check the defining identities of a quadratic pair."""
        A, F = self.A, self.A.F
        one = A.one()
        if self.ell + self.sigma.apply(self.ell) != one:
            raise CertificationError(f"{self.label}: l + sigma(l) != 1")
        for t, row in enumerate(self.sym_rows):
            s = El(A, row)
            if self.sigma.apply(s) != s:
                raise CertificationError(f"{self.label}: symmetric basis row {t} not fixed")
            lhs = A.trd(A.mul(self.ell, s))
            if lhs != self.f_on_sym[t]:
                raise CertificationError(f"{self.label}: Trd(l s) != f(s) on row {t}")
        # f(x + sigma x) = Trd(x) on the basis
        for i in range(A.dim):
            x = A.basis_el(i)
            s = x + self.sigma.apply(x)
            if s.is_zero():
                if not F.is_zero(A.trd(x)):
                    raise CertificationError(f"{self.label}: trace identity fails at basis {i}")
                continue
            if self.f(s) != A.trd(x):
                raise CertificationError(f"{self.label}: f(x + sigma x) != Trd(x) at basis {i}")


def _solve_ell(A: Algebra, sigma: Involution, sym_rows: list, f_on_sym: list) -> El:
    """Find l with l + sigma(l) = 1 and Trd(l s_t) = f(s_t).

    Column i is the image of e_i under l -> (l + sigma(l), Trd(l s_t)),
    the trace of the t-th symmetric element under the label d + t.
    """
    F = A.F
    d = A.dim
    syms = [El(A, row) for row in sym_rows]
    cols = []
    for i, im in enumerate(sigma.images):
        col = axpy(F, {i: F.one()}, F.one(), im)
        for t, s in enumerate(syms):
            col[d + t] = A.trd(A.mul(A.basis_el(i), s))
        cols.append(col)
    rhs = {**A.one().c, **{d + t: v for t, v in enumerate(f_on_sym)}}
    sol = solve(F, cols, rhs)
    if sol is None:
        raise UnsupportedInputError("no splitting element: not a quadratic pair")
    return El(A, sol)


def pair_from_ell(A: Algebra, sigma: Involution, ell: El, label: str) -> QPair:
    """The pair with f(s) = Trd(l s) for a chosen l with l + sigma(l) = 1."""
    if ell + sigma.apply(ell) != A.one():
        raise UnsupportedInputError("l + sigma(l) != 1")
    sym = sigma.sym_basis()
    f_vals = [A.trd(A.mul(ell, El(A, row))) for row in sym]
    pair = QPair(A, sigma, sym, f_vals, ell, label=label)
    pair.verify()
    return pair


def pair_from_form(q: QuadraticSpace):
    """The adjoint quadratic pair of a regular even-dimensional form.

    Returns (pair, aux) where aux carries the identification of V (x) V
    with End(V): aux["phi"](i, j) is the matrix of the rank-one map
    phi(e_i (x) e_j), aux["B"] the polar matrix, aux["Binv"] the columns
    of its inverse as sparse dicts, aux["A"] the matrix algebra, for use
    by the comparison with the even Clifford algebra.

    In characteristic not 2 odd dimensions are allowed as well.
    """
    F = q.F
    n = q.n
    if q.regularity() != "regular":
        raise UnsupportedInputError("adjoint pair needs a regular form")
    if F.char == 2 and n % 2:
        raise UnsupportedInputError("char 2 quadratic pairs need even dimension")
    A = MatrixAlgebra(FieldAlgebra(F), n, label=f"End({q.label})")
    B = q.polar_matrix()
    Binv = inverse(F, q.polar_columns())
    if Binv is None:
        raise UnsupportedInputError("polar form is singular")

    # sigma(X) = B^-1 X^t B: the transpose twisted by B^-1
    Binv_el = El(A, {A._idx(i, c, 0): v for c, col in enumerate(Binv) for i, v in col.items()})
    B_el = A.from_matrix([[{0: v} for v in row] for row in B])
    sigma = twist_involution(transpose_involution(A), Binv_el, B_el, label=f"ad({q.label})")
    sigma.verify()

    def phi(i: int, j: int) -> El:
        # phi(e_i (x) e_j) = E_ij B as a matrix: row i gets B's row j
        out = {}
        for t in range(n):
            v = B[j][t]
            if not F.is_zero(v):
                out[A._idx(i, t, 0)] = v
        return El(A, out)

    # f on the Gamma spanning set: f(phi(e_i (x) e_i)) = q(e_i),
    # f(phi(e_i (x) e_j) + phi(e_j (x) e_i)) = b_q(e_i, e_j)
    gam_elems = []
    gam_vals = []
    for i in range(n):
        gam_elems.append(phi(i, i))
        gam_vals.append(q.q([F.one() if t == i else F.zero() for t in range(n)]))
    for i in range(n):
        for j in range(i + 1, n):
            gam_elems.append(phi(i, j) + phi(j, i))
            gam_vals.append(B[i][j])
    sym = sigma.sym_basis()
    # the Gamma elements are a basis of the symmetric elements
    f_on_gamma = _linear_form(F, [g.c for g in gam_elems], gam_vals, A.dim)
    f_vals = [f_on_gamma(row) for row in sym]
    if None in f_vals:
        raise CertificationError("Gamma set fails to span the symmetric elements")
    ell = _solve_ell(A, sigma, sym, f_vals)
    pair = QPair(A, sigma, sym, f_vals, ell, label=f"Ad({q.label})")
    pair.verify()
    aux = {"A": A, "B": B, "Binv": Binv, "phi": phi, "q": q}
    return pair, aux


def pair_on_quaternion_tensor(Q1: QuaternionAlgebra, Q2: QuaternionAlgebra):
    """The canonical quadratic pair on Q1 (x) Q2 with sigma = gamma (x) gamma.

    Outside characteristic 2 it is induced by l = 1/2, so f = Trd/2; in
    characteristic 2 by the splitting element i1 (x) 1, whose trace
    condition holds because Trd(i1) = 1.
    """
    A = TensorAlgebra(Q1, Q2)
    sigma = involution_on_tensor(A, Q1.gamma(), Q2.gamma(), label="gamma(x)gamma")
    sigma.verify()
    F = A.F
    if F.char != 2:
        return pair_from_ell(A, sigma, F.inv(F.from_int(2)) * A.one(), label=f"({A.label},can)")
    return pair_from_ell(A, sigma, A.pure(Q1.basis_el(1), Q2.one()), label=f"({A.label},l)")
