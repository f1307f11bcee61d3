"""Finite-dimensional associative algebras with exact arithmetic.

Elements are sparse dicts {basis_index: coefficient} wrapped in El for
operator syntax.  Structure constants are produced lazily by mul_bb and
memoized, so large constructor-built algebras (matrix, tensor, opposite,
product, corner) never materialize a full table.  A hand-entered table
is checked when it is entered, since every certificate assumes it.  Every
involution is a canonical one (the reversal, gamma, the transpose, the
swap, the conjugation of S, or the pair quotient's reversed words) moved
by restrict_involution (to C0 or a corner, along the subalgebra's own
embed and project), twist_involution or involution_on_tensor; like
every map it is built without a certificate and certified once, where it
is claimed.  A map given by generator images (hom_on_generators) is
extended along the words that generators() proved.

Every certificate is exhaustive and checks its identity on the
generators that Algebra.generators() proves to span by their words: the
elements satisfying it form a subalgebra.  Nothing is sampled.  One
routine checks f(g e_j) = f(g) f(e_j) for every generator g and basis
element e_j, for AlgebraHom.verify and for Involution.verify (sigma: A ->
A^op).  Then sigma^2 is an endomorphism, so sigma^2 = id need hold on the
generators only; alpha . sigma = tau . alpha holds on a subalgebra once
alpha, sigma and tau are certified (respects); and an idempotent that
commutes with the generators is central, hence the unit of its corner.

A subclass supplies products (mul_bb), its unit and, where the reduced
trace is needed in characteristic 2, trd_vec.  Every other fact has one
generic answer on the base class: the degree is the square root of the
dimension, and the center, like the generating set, is computed once and
kept on the algebra.

Linear algebra stays in these coordinates, and linalg owns them: a sum
of elements is linalg.axpy, an involution or homomorphism applies its
basis images with linalg.apply_cols, and a map on elements (x -> gx -
xg, sigma - id, left multiplication) goes to linalg as the list of its
column images, the sparse coords of the images of the basis elements;
kernels and solutions come back as sparse coords.  No dense matrix is
built on the way.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Optional

from .errors import CertificationError, UnsupportedInputError
from .linalg import SparseEchelon, apply_cols, axpy, inverse, kernel, rref, solve
from .scalars import Field, check_quaternion_parameters


class El:
    """Algebra element: thin wrapper over sparse coords with arithmetic."""

    __slots__ = ("A", "c")

    def __init__(self, A: "Algebra", coords: dict):
        self.A = A
        self.c = {k: v for k, v in coords.items() if not A.F.is_zero(v)}

    def __add__(self, other):
        return El(self.A, axpy(self.A.F, dict(self.c), self.A.F.one(), other.c))

    def __sub__(self, other):
        F = self.A.F
        return El(self.A, axpy(F, dict(self.c), F.neg(F.one()), other.c))

    def __neg__(self):
        return self * self.A.F.neg(self.A.F.one())

    def __mul__(self, other):
        if isinstance(other, El):
            return self.A.mul(self, other)
        F = self.A.F
        return El(self.A, {k: F.mul(other, v) for k, v in self.c.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        # equal coordinate dicts settle it; otherwise compare by field
        # arithmetic, which does not rely on one representation per element
        return (isinstance(other, El) and self.A is other.A
                and (self.c == other.c or (self - other).is_zero()))

    def __hash__(self):
        return hash((id(self.A), frozenset(self.c.items())))

    def is_zero(self) -> bool:
        return not self.c

    def dense(self) -> list:
        F = self.A.F
        return [self.c.get(i, F.zero()) for i in range(self.A.dim)]

    def __repr__(self):
        if not self.c:
            return "0"
        F = self.A.F
        return " + ".join(f"{F.fmt(v)}*e{k}" for k, v in sorted(self.c.items()))


def signed_sums(vectors: list):
    """v_i0 +- v_i1 +- ... +- v_ik over the nonempty subsets i0 < ... < ik,
    by size, then in lexicographic order, with + before -.

    The first k^2 items of k vectors are the vectors, then v_i + v_j and
    v_i - v_j for each pair i < j.  A quadratic form that vanishes on all
    of them vanishes on their span (its polar form vanishes on every
    pair), so those items hold an anisotropic vector of every form that is
    nondegenerate on the span.
    """
    for size in range(1, len(vectors) + 1):
        for first, *rest in itertools.combinations(vectors, size):
            for signs in itertools.product((True, False), repeat=size - 1):
                w = first
                for plus, v in zip(signs, rest):
                    w = w + v if plus else w - v
                yield w


def as_scalar(A: Algebra, x: El):
    """The scalar c with x = c * 1, or None.  Works whatever the basis."""
    F = A.F
    one = A.one()
    if x.is_zero():
        return F.zero()
    i, ui = next(iter(one.c.items()))
    if i not in x.c:
        return None
    lam = F.div(x.c[i], ui)
    return lam if x == lam * one else None


def square_unit(A: Algebra, vectors: list, what: str) -> tuple:
    """(w, w^2) for the first w among the first k^2 signed sums of the k
    vectors whose square is a nonzero scalar: an anisotropic vector of the
    squaring form where it is quadratic (pure quaternions, vectors of a
    Clifford algebra).  When none of those k^2 qualifies the form vanishes
    on the span, so the search stops there."""
    for w in itertools.islice(signed_sums(vectors), len(vectors) ** 2):
        sq = as_scalar(A, A.mul(w, w))
        if sq is not None and not A.F.is_zero(sq):
            return w, sq
    raise CertificationError(f"no {what} found")


class Algebra:
    """Base class.  Subclasses set F, dim, _unit and implement mul_bb."""

    F: Field
    dim: int
    label: str = "A"

    def __init__(self):
        self._mul_cache: dict = {}
        self._unit: dict = {}
        self._generators: Optional[list] = None
        self._center: Optional[list] = None

    def mul_bb(self, i: int, j: int) -> dict:
        """Product of basis elements i and j as sparse coords."""
        raise NotImplementedError

    def _mul_bb_cached(self, i: int, j: int) -> dict:
        key = (i, j)
        out = self._mul_cache.get(key)
        if out is None:
            out = self.mul_bb(i, j)
            self._mul_cache[key] = out
        return out

    def mul(self, x: El, y: El) -> El:
        F = self.F
        acc: dict = {}
        for i, xi in x.c.items():
            for j, yj in y.c.items():
                prod = self._mul_bb_cached(i, j)
                if prod:
                    axpy(F, acc, F.mul(xi, yj), prod)
        return El(self, acc)

    def zero(self) -> El:
        return El(self, {})

    def one(self) -> El:
        return El(self, dict(self._unit))

    def basis_el(self, i: int) -> El:
        return El(self, {i: self.F.one()})

    def el(self, coords: dict) -> El:
        return El(self, coords)

    @property
    def deg(self) -> Optional[int]:
        """Degree as central simple algebra, when dim is a perfect square."""
        n = math.isqrt(self.dim)
        return n if n * n == self.dim else None

    def trd_vec(self) -> Optional[list]:
        """Reduced traces of the basis elements, or None if unknown."""
        return None

    def trd(self, x: El):
        """Reduced trace, read from trd_vec."""
        v = self.trd_vec()
        if v is None:
            raise UnsupportedInputError(f"{self.label}: no reduced trace available")
        F = self.F
        acc = F.zero()
        for i, xi in x.c.items():
            acc = F.add(acc, F.mul(xi, v[i]))
        return acc

    def generators(self) -> list:
        """Basis indices that generate the algebra, proved to do so.

        Indices are taken greedily in order, skipping one whose basis
        element already lies in the span of the words found so far; that
        span starts at 1 and is closed under right multiplication by the
        chosen generators in one echelon.  The words are left-normed
        products, so the proof does not assume associativity.  Each word
        after 1 is kept as its (parent word, generator) pair, word k + 1 =
        word[parent] e_g, for hom_on_generators.  Computed once per
        algebra; raises CertificationError if the words fall short of the
        dimension.
        """
        if self._generators is not None:
            return self._generators
        F = self.F
        ech = SparseEchelon(F)
        words: list = [dict(self._unit)]
        steps: list = []
        gens: list = []
        pending: deque = deque()  # (word index, generator) products not yet formed

        def add_word(w: dict, step: tuple) -> None:
            if ech.insert(w) is not None:
                pending.extend((len(words), g) for g in gens)
                words.append(w)
                steps.append(step)

        ech.insert(words[0])
        for i in range(self.dim):
            if ech.rank == self.dim:
                break
            if ech.contains({i: F.one()}):
                continue
            gens.append(i)
            pending.extend((k, i) for k in range(len(words)))
            while pending and ech.rank < self.dim:
                k, g = pending.popleft()
                add_word(self.mul(El(self, words[k]), self.basis_el(g)).c, (k, g))
        if ech.rank != self.dim:
            raise CertificationError(f"{self.label}: generator words span only {ech.rank} of {self.dim}")
        self._generators = gens
        self._word_steps = steps
        return gens

    def verify_associative(self) -> dict:
        """Check (g e_j) e_k = g (e_j e_k) for every generator g and basis pair.

        The elements a with (a x) y = a (x y) for all x, y form a subspace
        that contains 1 and, by the identity alone, is closed under
        products; it holds the generators, hence their words, hence all of
        the algebra.  Returns the generator and check counts.
        """
        n = self.dim
        one = self.one()
        for i in range(n):
            b = self.basis_el(i)
            if self.mul(one, b) != b or self.mul(b, one) != b:
                raise CertificationError(f"{self.label}: unit fails on basis {i}")
        gens = self.generators()
        for g in gens:
            ge = self.basis_el(g)
            for j in range(n):
                gj = El(self, self._mul_bb_cached(g, j))
                for k in range(n):
                    lhs = self.mul(gj, self.basis_el(k))
                    if lhs != self.mul(ge, El(self, self._mul_bb_cached(j, k))):
                        raise CertificationError(f"{self.label}: associativity fails at ({g},{j},{k})")
        return {"generators": len(gens), "checks": 2 * n + len(gens) * n * n}

    def __repr__(self):
        return f"{self.label}[dim {self.dim} over {self.F}]"


class ExplicitAlgebra(Algebra):
    """Algebra from an explicit structure table.

    table[(i, j)] is the sparse product of basis i and j; missing keys mean
    zero.  The unit must be supplied as sparse coords.  A hand-entered
    table is a premise of every certificate built on it, so the unit and
    associativity are always checked.
    """

    def __init__(self, F: Field, dim: int, table: dict, unit: dict, label: str = "A"):
        super().__init__()
        self.F = F
        self.dim = dim
        self._table = table
        self._unit = {k: v for k, v in unit.items() if not F.is_zero(v)}
        self.label = label
        self.verify_associative()

    def mul_bb(self, i: int, j: int) -> dict:
        return self._table.get((i, j), {})


class FieldAlgebra(Algebra):
    """The base field as a 1-dimensional algebra."""

    def __init__(self, F: Field):
        super().__init__()
        self.F = F
        self.dim = 1
        self._unit = {0: F.one()}
        self.label = f"{F}"

    def mul_bb(self, i, j):
        return {0: self.F.one()}

    def trd_vec(self):
        return [self.F.one()]


class QuaternionAlgebra(Algebra):
    """Quaternion algebra with its canonical symplectic involution.

    char != 2: (a, b): i^2 = a, j^2 = b, ij = -ji = k.
    char == 2: [a, b): i^2 = i + a, j^2 = b, ji = k + j where k = ij.
    gamma is the canonical involution x -> Trd(x) - x.
    """

    def __init__(self, F: Field, a, b, label: Optional[str] = None):
        super().__init__()
        check_quaternion_parameters(F, a, b)
        self.F = F
        self.a = a
        self.b = b
        self.dim = 4
        self._unit = {0: F.one()}
        self.char2 = F.char == 2
        if label is None:
            label = f"({F.fmt(a)},{F.fmt(b)})" if not self.char2 else f"[{F.fmt(a)},{F.fmt(b)})"
        self.label = label
        self._table = self._build_table()
        self.verify_associative()

    def _build_table(self):
        F, a, b = self.F, self.a, self.b
        one = F.one()
        t = {}
        if not self.char2:
            ab = F.mul(a, b)
            # basis 1, i, j, k
            t[(1, 1)] = {0: a}
            t[(2, 2)] = {0: b}
            t[(3, 3)] = {0: F.neg(ab)}
            t[(1, 2)] = {3: one}
            t[(2, 1)] = {3: F.neg(one)}
            t[(1, 3)] = {2: a}
            t[(3, 1)] = {2: F.neg(a)}
            t[(2, 3)] = {1: F.neg(b)}
            t[(3, 2)] = {1: b}
        else:
            ab = F.mul(a, b)
            # i^2 = i + a, j^2 = b, k = ij, ji = k + j; the rest follows by
            # associativity: ki = aj, ik = aj + k, jk = bi + b, kj = bi, k^2 = ab
            t[(1, 1)] = {0: a, 1: one}
            t[(2, 2)] = {0: b}
            t[(1, 2)] = {3: one}
            t[(2, 1)] = {2: one, 3: one}
            t[(3, 1)] = {2: a}
            t[(1, 3)] = {2: a, 3: one}
            t[(2, 3)] = {0: b, 1: b}
            t[(3, 2)] = {1: b}
            t[(3, 3)] = {0: ab}
        for i in range(4):
            t[(0, i)] = {i: one}
            t[(i, 0)] = {i: one}
        return t

    def mul_bb(self, i, j):
        return self._table.get((i, j), {})

    def trd_vec(self):
        F = self.F
        two = F.from_int(2)
        if self.char2:
            return [F.zero(), F.one(), F.zero(), F.zero()]
        return [two, F.zero(), F.zero(), F.zero()]

    def gamma(self) -> "Involution":
        """Canonical involution x -> Trd(x) - x."""
        F = self.F
        one = F.one()
        if self.char2:
            imgs = [{0: one}, {0: one, 1: one}, {2: one}, {3: one}]
        else:
            m1 = F.neg(one)
            imgs = [{0: one}, {1: m1}, {2: m1}, {3: m1}]
        return Involution(self, imgs, label="gamma")


class MatrixAlgebra(Algebra):
    """n x n matrices over a base algebra; basis (r, c, t) lexicographic."""

    def __init__(self, base: Algebra, n: int, label: Optional[str] = None):
        super().__init__()
        self.base = base
        self.n = n
        self.F = base.F
        self.dim = n * n * base.dim
        one = base.one()
        self._unit = {}
        for r in range(n):
            for t, v in one.c.items():
                self._unit[self._idx(r, r, t)] = v
        self.label = label or f"M{n}({base.label})"

    def _idx(self, r: int, c: int, t: int) -> int:
        return (r * self.n + c) * self.base.dim + t

    def _unidx(self, i: int):
        t = i % self.base.dim
        rc = i // self.base.dim
        return rc // self.n, rc % self.n, t

    def mul_bb(self, i, j):
        r1, c1, t1 = self._unidx(i)
        r2, c2, t2 = self._unidx(j)
        if c1 != r2:
            return {}
        prod = self.base._mul_bb_cached(t1, t2)
        return {self._idx(r1, c2, t): v for t, v in prod.items()}

    def trd_vec(self):
        tv = self.base.trd_vec()
        if tv is None:
            return None
        F = self.F
        out = [F.zero()] * self.dim
        for r in range(self.n):
            for t in range(self.base.dim):
                out[self._idx(r, r, t)] = tv[t]
        return out

    def from_matrix(self, M: list) -> El:
        """Element from an n x n array of base-algebra Els (or sparse dicts)."""
        coords = {}
        for r in range(self.n):
            for c in range(self.n):
                entry = M[r][c]
                ec = entry.c if isinstance(entry, El) else entry
                for t, v in ec.items():
                    if not self.F.is_zero(v):
                        coords[self._idx(r, c, t)] = v
        return El(self, coords)

    def to_matrix(self, x: El) -> list:
        out = [[self.base.zero() for _ in range(self.n)] for _ in range(self.n)]
        for i, v in x.c.items():
            r, c, t = self._unidx(i)
            out[r][c] = out[r][c] + v * self.base.basis_el(t)
        return out


class TensorAlgebra(Algebra):
    """Tensor product over the common base field; basis pairs (i, j)."""

    def __init__(self, A: Algebra, B: Algebra, label: Optional[str] = None):
        super().__init__()
        if A.F != B.F:
            raise UnsupportedInputError("tensor factors must share the base field")
        self.A, self.B = A, B
        self.F = A.F
        self.dim = A.dim * B.dim
        self._unit = {}
        for i, u in A._unit.items():
            for j, v in B._unit.items():
                self._unit[i * B.dim + j] = self.F.mul(u, v)
        self.label = label or f"{A.label}(x){B.label}"

    def _unidx(self, i):
        return i // self.B.dim, i % self.B.dim

    def idx(self, i, j):
        return i * self.B.dim + j

    def mul_bb(self, i, j):
        a1, b1 = self._unidx(i)
        a2, b2 = self._unidx(j)
        pa = self.A._mul_bb_cached(a1, a2)
        if not pa:
            return {}
        pb = self.B._mul_bb_cached(b1, b2)
        if not pb:
            return {}
        F = self.F
        out = {}
        for ka, va in pa.items():
            for kb, vb in pb.items():
                out[self.idx(ka, kb)] = F.mul(va, vb)
        return out

    def trd_vec(self):
        ta, tb = self.A.trd_vec(), self.B.trd_vec()
        if ta is None or tb is None:
            return None
        F = self.F
        out = [F.zero()] * self.dim
        for i in range(self.A.dim):
            for j in range(self.B.dim):
                out[self.idx(i, j)] = F.mul(ta[i], tb[j])
        return out

    def pure(self, x: El, y: El) -> El:
        F = self.F
        coords = {}
        for i, xi in x.c.items():
            for j, yj in y.c.items():
                coords[self.idx(i, j)] = F.mul(xi, yj)
        return El(self, coords)


class OppositeAlgebra(Algebra):
    """Same space, reversed multiplication.  Brauer class unchanged for 2-torsion."""

    def __init__(self, A: Algebra):
        super().__init__()
        self.A = A
        self.F = A.F
        self.dim = A.dim
        self._unit = dict(A._unit)
        self.label = f"{A.label}^op"

    def mul_bb(self, i, j):
        return self.A._mul_bb_cached(j, i)


class ProductAlgebra(Algebra):
    """Direct product A x B; basis is the disjoint union."""

    def __init__(self, A: Algebra, B: Algebra, label: Optional[str] = None):
        super().__init__()
        if A.F != B.F:
            raise UnsupportedInputError("product factors must share the base field")
        self.A, self.B = A, B
        self.F = A.F
        self.dim = A.dim + B.dim
        self._unit = dict(A._unit)
        for j, v in B._unit.items():
            self._unit[A.dim + j] = v
        self.label = label or f"{A.label}x{B.label}"

    def mul_bb(self, i, j):
        if i < self.A.dim and j < self.A.dim:
            return self.A._mul_bb_cached(i, j)
        if i >= self.A.dim and j >= self.A.dim:
            prod = self.B._mul_bb_cached(i - self.A.dim, j - self.A.dim)
            return {k + self.A.dim: v for k, v in prod.items()}
        return {}

    def inject_left(self, x: El) -> El:
        return El(self, dict(x.c))

    def inject_right(self, y: El) -> El:
        return El(self, {k + self.A.dim: v for k, v in y.c.items()})


def _verify_on_generators(A: Algebra, B: Algebra, images: list, label: str, what: str) -> dict:
    """Check f(1) = 1 and f(g e_j) = f(g) f(e_j) in B for the linear map f
    with these basis images, every generator g of A and basis element e_j;
    with A and B associative, the elements a with f(a x) = f(a) f(x) for
    all x form a subalgebra.  Returns the generator and check counts."""
    F = B.F
    if El(B, apply_cols(F, images, A._unit)) != B.one():
        raise CertificationError(f"{label}: unit not preserved")
    gens = A.generators()
    imgs = [El(B, im) for im in images]
    for g in gens:
        for j in range(A.dim):
            if El(B, apply_cols(F, images, A._mul_bb_cached(g, j))) != B.mul(imgs[g], imgs[j]):
                raise CertificationError(f"{label}: {what} fails at ({g},{j})")
    return {"generators": len(gens), "checks": 1 + len(gens) * A.dim}


# ---------------------------------------------------------------------------
# involutions

class Involution:
    """An F-linear anti-automorphism of order <= 2, given on the basis."""

    def __init__(self, A: Algebra, images: list, label: str = "sigma"):
        self.A = A
        self.images = [dict(im) for im in images]
        self.label = label

    def apply(self, x: El) -> El:
        return El(self.A, apply_cols(self.A.F, self.images, x.c))

    def __call__(self, x: El) -> El:
        return self.apply(x)

    def verify(self) -> dict:
        """Certify sigma as a homomorphism A -> A^op of order 2: sigma(1) =
        1, sigma(g e_j) = sigma(e_j) sigma(g) for every generator g and basis
        element e_j, then sigma^2(g) = g, which covers A since sigma^2 is an
        endomorphism.  Returns the generator and check counts."""
        A = self.A
        out = _verify_on_generators(A, OppositeAlgebra(A), self.images, self.label, "anti-multiplicativity")
        for g in A.generators():
            b = A.basis_el(g)
            if self.apply(self.apply(b)) != b:
                raise CertificationError(f"{self.label}: not an involution on generator {g}")
        out["checks"] += out["generators"]
        return out

    def sym_basis(self) -> list:
        """Basis of Sym(A, sigma) = ker(sigma - id), as sparse coords."""
        F = self.A.F
        cols = [axpy(F, dict(im), F.neg(F.one()), {j: F.one()}) for j, im in enumerate(self.images)]
        return kernel(F, cols, self.A.dim)


def involution_on_tensor(T: TensorAlgebra, sA: Involution, sB: Involution, label=None) -> Involution:
    """sA (x) sB on a tensor product."""
    imgs = [{T.idx(ka, kb): T.F.mul(va, vb) for ka, va in sA.images[a].items()
             for kb, vb in sB.images[b].items()} for a, b in map(T._unidx, range(T.dim))]
    return Involution(T, imgs, label=label or f"{sA.label}(x){sB.label}")


def swap_involution(P: ProductAlgebra) -> Involution:
    """The factor swap on A x A^op style products where both sides share a basis."""
    if P.A.dim != P.B.dim:
        raise UnsupportedInputError("swap needs equal factor dimensions")
    one = P.F.one()
    imgs = [{P.A.dim + i: one} for i in range(P.A.dim)] + [{j: one} for j in range(P.B.dim)]
    return Involution(P, imgs, label="swap")


def transpose_involution(M: MatrixAlgebra, theta: Optional[Involution] = None,
                         label: str = "transpose") -> Involution:
    """E_rc b -> E_cr theta(b) on M_n(base); with theta None the plain
    transpose, an anti-automorphism only over a field base."""
    if theta is None and M.base.dim != 1:
        raise UnsupportedInputError("plain transpose needs a field base")
    imgs = []
    for idx in range(M.dim):
        r, c, t = M._unidx(idx)
        tb = {t: M.F.one()} if theta is None else theta.images[t]
        imgs.append({M._idx(c, r, k): v for k, v in tb.items()})
    return Involution(M, imgs, label=label)


def twist_involution(sigma: Involution, u: El, uinv: El, label: str = "twist") -> Involution:
    """Int(u) . sigma, x -> u sigma(x) u^-1, for u with inverse uinv.  An
    involution when sigma(u) = +-u (Knus-Merkurjev-Rost-Tignol, Prop. 2.7)."""
    A = sigma.A
    return Involution(A, [A.mul(A.mul(u, El(A, im)), uinv).c for im in sigma.images], label=label)


def adjoint_involution(M: MatrixAlgebra, G: list, base_inv: Optional[Involution] = None,
                       label: str = "adj") -> Involution:
    """Involution X -> G^-1 theta(X)^t G on M_n(base): the theta-transpose
    twisted by G^-1 (theta = base_inv, the plain transpose if None).

    G is an n x n array of base-algebra elements (El), invertible, with
    theta(G)^t = G or -G; G^-1 is solved for in the matrix algebra itself.
    """
    Gm = M.from_matrix(G)
    Ginv = alg_inverse(M, Gm)
    if Ginv is None:
        raise UnsupportedInputError("adjoint form is singular")
    return twist_involution(transpose_involution(M, base_inv), Ginv, Gm, label=label)


def alg_inverse(A: Algebra, x: El) -> Optional[El]:
    """Inverse of x in A, solving x y = 1 for y, or None."""
    y = solve(A.F, [A.mul(x, A.basis_el(j)).c for j in range(A.dim)], A._unit)
    if y is None:
        return None
    inv = El(A, y)
    if A.mul(x, inv) != A.one() or A.mul(inv, x) != A.one():
        return None
    return inv


def involution_type(A: Algebra, sigma: Involution) -> str:
    """'orthogonal', 'symplectic', or 'unitary'.

    Unitary means sigma moves the center.  For the first kind the type is
    read off dim Sym in characteristic not 2 and from whether 1 lies in
    Alt in characteristic 2.  A center Z of dimension z that sigma fixes
    (a field, or a product of fields) makes A of degree m = sqrt(dim / z)
    over Z, and dim Sym is z * m(m + 1)/2 or z * m(m - 1)/2.
    """
    F = A.F
    cb = center_basis(A)
    for v in cb:
        x = El(A, v)
        if sigma.apply(x) != x:
            return "unitary"
    if F.char == 2:
        # symplectic exactly when 1 lies in Alt, the span of the x - sigma(x)
        alt = rref(F, [axpy(F, {i: F.one()}, F.neg(F.one()), im) for i, im in enumerate(sigma.images)])
        return "symplectic" if alt.contains(A._unit) else "orthogonal"
    z = len(cb)
    m = math.isqrt(A.dim // z)
    if z * m * m != A.dim:
        raise UnsupportedInputError(f"dimension {A.dim} is not a square over a center of dimension {z}")
    s = len(sigma.sym_basis())
    if s == z * m * (m + 1) // 2:
        return "orthogonal"
    if s == z * m * (m - 1) // 2:
        return "symplectic"
    raise CertificationError(f"unexpected symmetric dimension {s} for degree {m} over a center of dimension {z}")


# ---------------------------------------------------------------------------
# centers, idempotents, corners

def center_basis(A: Algebra) -> list:
    """Basis of the center as sparse coords: the joint commutant of
    A.generators(), one kernel.

    Computed once per algebra, like the generators; later calls return the
    same list.  Callers read only basis-independent facts from it (its
    dimension, and whether an involution fixes it).
    """
    if A._center is not None:
        return A._center
    F = A.F
    gens = A.generators()
    # column c holds g e_c - e_c g for every generator g, under labels (g, r)
    cols = [{(g, r): v for g in gens
             for r, v in axpy(F, dict(A._mul_bb_cached(g, c)), F.neg(F.one()),
                              A._mul_bb_cached(c, g)).items()}
            for c in range(A.dim)]
    A._center = kernel(F, cols, A.dim)
    return A._center


def center_structure(A: Algebra):
    """For an algebra whose center has dim 2: (etale, idempotent or None).

    Returns the quadratic etale description of the center and, when it is
    split, a primitive central idempotent e (the other being 1 - e).
    dim-1 centers return (None, None).
    """
    from .scalars import artin_schreier_root, quad_ext_info

    F = A.F
    cb = center_basis(A)
    if len(cb) == 1:
        return None, None
    if len(cb) != 2:
        raise UnsupportedInputError(f"center has dimension {len(cb)}")
    one = A.one()
    # pick w in the center, independent of 1
    scalars = rref(F, [one.c])
    w = next((El(A, v) for v in cb if not scalars.contains(v)), None)
    if w is None:
        raise CertificationError("center basis degenerate")
    # w^2 = alpha w + beta
    sol = solve(F, [w.c, one.c], A.mul(w, w).c)
    if sol is None:
        raise CertificationError("center element fails its quadratic equation")
    alpha, beta = sol.get(0, F.zero()), sol.get(1, F.zero())
    if F.char != 2:
        half = F.inv(F.from_int(2))
        v = w - (F.mul(alpha, half)) * one
        m = F.add(beta, F.mul(F.mul(alpha, alpha), F.div(F.one(), F.from_int(4))))
        et = quad_ext_info(F, m)
        if not et.split:
            return et, None
        r = F.sqrt(m)
        e = (one + F.inv(r) * v) * half
    else:
        if F.is_zero(alpha):
            raise CertificationError("center is not etale (inseparable element)")
        u = F.inv(alpha) * w
        c = F.div(beta, F.mul(alpha, alpha))
        et = quad_ext_info(F, c)
        if not et.split:
            return et, None
        t = artin_schreier_root(F, c)
        if t is None:
            raise CertificationError("split etale datum without Artin-Schreier root")
        e = u + t * one
    if A.mul(e, e) != e:
        raise CertificationError("constructed central idempotent fails e^2 = e")
    return et, e


class CornerAlgebra(Algebra):
    """The unital algebra eA for a central idempotent e (eAe = eA, since
    e b e = e b), on the reduced echelon basis of the span of the e b: an
    element of the span has its coordinates at the pivot columns.  A
    product of basis elements is A's product read back in these
    coordinates when it is first asked for.  Built uncertified;
    corner_algebra certifies e."""

    def __init__(self, A: Algebra, e: El, label: str = "corner"):
        super().__init__()
        self.A, self.e, self.F, self.label = A, e, A.F, label
        self._ech = SparseEchelon(A.F)
        for i in range(A.dim):
            self._ech.insert(A.mul(e, A.basis_el(i)).c)
        self._pivots = sorted(self._ech.rows)
        self._basis = [El(A, self._ech.rows[p]) for p in self._pivots]
        self.dim = len(self._pivots)
        self._unit = self._coords_of(e)

    def _coords_of(self, x: El) -> dict:
        if self._ech.reduce(x.c):
            raise CertificationError("element not in corner span")
        return {k: x.c[p] for k, p in enumerate(self._pivots) if p in x.c}

    def mul_bb(self, i: int, j: int) -> dict:
        return self._coords_of(self.A.mul(self._basis[i], self._basis[j]))

    def embed(self, x: El) -> El:
        return El(self.A, apply_cols(self.F, [b.c for b in self._basis], x.c))

    def project(self, x: El) -> El:
        return El(self, self._coords_of(self.A.mul(self.e, x)))


def corner_algebra(A: Algebra, e: El, label: str = "corner") -> CornerAlgebra:
    """The corner eA of A at e, certified by e e = e and e g = g e for
    every generator g: e is then central, the unit of eA (e a e = e a),
    and eA is closed under products.  Its project is x -> e x."""
    if A.mul(e, e) != e:
        raise CertificationError(f"{label}: e is not an idempotent")
    for g in A.generators():
        b = A.basis_el(g)
        if A.mul(e, b) != A.mul(b, e):
            raise CertificationError(f"{label}: e does not commute with generator {g}")
    return CornerAlgebra(A, e, label)


def restrict_involution(B: Algebra, sigma: Involution, label="sigma|") -> Involution:
    """Restriction of an involution to a subalgebra B along B.embed and
    B.project (a corner, or the even part of a Clifford algebra)."""
    imgs = [B.project(sigma.apply(B.embed(B.basis_el(i)))).c for i in range(B.dim)]
    return Involution(B, imgs, label=label)


# ---------------------------------------------------------------------------
# homomorphisms

class AlgebraHom:
    """Unital algebra homomorphism given by images of all basis elements."""

    def __init__(self, A: Algebra, B: Algebra, images: list, label: str = "phi"):
        self.A, self.B = A, B
        self.images = [dict(im) for im in images]
        self.label = label

    def apply(self, x: El) -> El:
        return El(self.B, apply_cols(self.B.F, self.images, x.c))

    def verify(self) -> dict:
        """Check phi(1) = 1 and phi(g e_j) = phi(g) phi(e_j) for every
        generator g of A and basis element e_j; returns the generator and
        check counts."""
        return _verify_on_generators(self.A, self.B, self.images, self.label, "multiplicativity")

    def is_injective(self) -> bool:
        return rref(self.B.F, self.images).rank == self.A.dim

    def is_bijective(self) -> bool:
        return self.is_injective() and self.A.dim == self.B.dim

    def respects(self, sA: Involution, sB: Involution) -> bool:
        """phi(sigma_A(g)) = sigma_B(phi(g)) for every generator g of A.

        With phi, sigma_A and sigma_B certified, the elements where the
        identity holds form a subalgebra, so it holds on all of A."""
        gens = map(self.A.basis_el, self.A.generators())
        return all(self.apply(sA.apply(x)) == sB.apply(self.apply(x)) for x in gens)


def hom_on_generators(A: Algebra, B: Algebra, gen_images: list, label: str = "phi") -> AlgebraHom:
    """The map with the given images of A.generators(), extended along the
    words that generators() proved: word[parent] e_g goes to the image of
    word[parent] times that of e_g, and e_i, written in the words, to the
    same combination of their images.  Uncertified, like every map."""
    F = A.F
    image_of = dict(zip(A.generators(), gen_images))
    words, images = [A._unit], [B._unit]
    for parent, g in A._word_steps:
        words.append(A.mul(El(A, words[parent]), A.basis_el(g)).c)
        images.append(B.mul(El(B, images[parent]), image_of[g]).c)
    return AlgebraHom(A, B, [apply_cols(F, images, coeffs) for coeffs in inverse(F, words)], label=label)
