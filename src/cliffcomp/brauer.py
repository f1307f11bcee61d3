"""2-torsion Brauer classes over Q and finite fields, kept symbolic.

A class over Q is a product of quaternion symbols (a, b).  Its complete
invariant is the finite set of places where the product of Hilbert
symbols is -1.  Classes over a quadratic or biquadratic field S over Q
arise here only as restrictions of classes from Q, and are read from
place behavior alone (EtaleQuadratic.place_behavior): a restricted class
is trivial iff no place of its support splits completely in S, that is,
splits in S (resp. in both quadratic subfields).  RestrictedClass holds
the quadratic case; mcd reads distances over composita the same way.
Over finite fields every class is trivial.

Distances are 0 or 1: a nontrivial 2-torsion class over a number field
has index exactly 2, so two distinct classes always differ by a
quaternion algebra.

Square classes x = +-p1^e1 ... pk^ek with (x, d)_v = -1 on given places
are solved for: (x, d)_v is bimultiplicative, so that is one linear
system over F2 (solve_symbols).  The quaternion model (a, b) of a class
and the rescaling lam of a form in compose, with [C(lam q)] = [C(q)]
(lam, d), are such solutions, and the least prime not in play joins while
there is none.  This ends: a solution exists (Serre, A Course in
Arithmetic, ch. III, Thm 4, with Dirichlet's theorem), and the solve finds
one once its primes are in play.
"""

from __future__ import annotations

import itertools
import math

from .algebra import (
    Algebra,
    El,
    QuaternionAlgebra,
    as_scalar,
    hom_on_generators,
    signed_sums,
    square_unit,
)
from .errors import CertificationError, UnsupportedInputError
from .linalg import kernel, solve
from .scalars import (
    Field,
    PLACE_REAL,
    Place,
    PrimeField,
    QQ,
    EtaleQuadratic,
    RationalField,
    _is_prime,
    hilbert_symbol,
    relevant_places,
    squarefree_part,
)


# ---------------------------------------------------------------------------
# classes over the base field

class BrauerClass:
    """A 2-torsion class over the base field, as a list of symbols.

    Over Q its support is computed from the symbols unless it is passed
    in, already known: a product of classes has the symmetric difference
    of their supports, the classes forming an F2-vector space.
    """

    def __init__(self, F: Field, symbols: list, support=None):
        self.F = F
        self.symbols = [(a, b) for a, b in symbols]
        if not isinstance(F, RationalField):
            # finite base field: Brauer group is trivial
            self._support = frozenset()
        elif support is not None:
            self._support = frozenset(support)
        else:
            self._support = frozenset(_support_places(self.symbols))

    @property
    def support(self) -> frozenset:
        return self._support

    def is_trivial(self) -> bool:
        return not self._support

    def __mul__(self, other: "BrauerClass") -> "BrauerClass":
        if self.F != other.F:
            raise UnsupportedInputError("classes live over different fields")
        return BrauerClass(self.F, self.symbols + other.symbols, self._support ^ other._support)

    def __eq__(self, other) -> bool:
        return isinstance(other, BrauerClass) and self.F == other.F and self._support == other._support

    def __hash__(self):
        return hash((self.F, self._support))

    def distance(self, other: "BrauerClass") -> int:
        """0 if equal, else 1 (a quaternion factor always suffices)."""
        return 0 if self == other else 1

    def restrict(self, S: EtaleQuadratic) -> "RestrictedClass":
        return RestrictedClass(self, S)

    def invariant_at(self, v: Place) -> int:
        return -1 if v in self._support else 1

    def to_json(self) -> dict:
        F = self.F
        return {
            "symbols": [[F.fmt(a), F.fmt(b)] for a, b in self.symbols],
            "support": sorted(repr(v) for v in self._support),
            "trivial": self.is_trivial(),
        }

    def __repr__(self):
        if self.is_trivial():
            return "BrauerClass(1)"
        sym = "*".join(f"({self.F.fmt(a)},{self.F.fmt(b)})" for a, b in self.symbols)
        return f"BrauerClass({sym}; support {sorted(repr(v) for v in self._support)})"


def _support_places(symbols: list, places=None) -> list:
    """The places where the product of the symbols' Hilbert symbols is -1.

    Only `places` are tried; by default they are inf, 2 and the odd primes
    of the symbols' entries, outside which every symbol is 1.
    """
    if not symbols:
        return []
    if places is None:
        places = relevant_places([x for ab in symbols for x in ab])
    out = []
    for v in places:
        prod = 1
        for a, b in symbols:
            prod *= hilbert_symbol(a, b, v)
        if prod == -1:
            out.append(v)
    return out


def trivial_class(F: Field) -> BrauerClass:
    return BrauerClass(F, [])


# ---------------------------------------------------------------------------
# restriction to a quadratic field

class RestrictedClass:
    """res_S(c) for a class c over Q and a quadratic field S over Q.

    A place of Q stays degree 1 in S exactly when it splits there, so the
    support of res_S(c) is the part of c's support that splits in S.
    """

    def __init__(self, cls: BrauerClass, S: EtaleQuadratic):
        if not isinstance(cls.F, RationalField):
            raise UnsupportedInputError("restriction bases are for classes over Q")
        self.cls = cls
        self.S = S
        self._support = frozenset(v for v in cls.support if S.place_behavior(v) == "split")

    def is_trivial(self) -> bool:
        return not self._support

    @property
    def base(self) -> str:
        return f"Q(sqrt {squarefree_part(self.S.datum)})"

    def to_json(self) -> dict:
        d = self.cls.to_json()
        d["base"] = self.base
        d["support"] = sorted(repr(v) for v in self._support)
        d["trivial"] = self.is_trivial()
        return d

    def __repr__(self):
        return f"Res[{self.base}]{self.cls!r}"


# ---------------------------------------------------------------------------
# symbol recovery from degree-2 algebras

def quaternion_symbol_of(A: Algebra) -> tuple:
    """Recover a symbol (a, b) with A isomorphic to the quaternion algebra
    (a, b) (char != 2) or [a, b) (char 2).  Certified by the isomorphism
    that sends the proved generators i, j of the quaternion algebra to the
    two generators found (hom_on_generators).

    Every generator is the first fit in a finite list: spanning vectors,
    then their pairwise sums and differences (square_unit).  The
    norm form is nondegenerate on the pure quaternions, where x is sought,
    and on the complement of x (or u), where y (or v) is sought, so the
    list holds an anisotropic vector.  In char 2, u is c / alpha for the
    first non-scalar candidate c with c^2 = alpha c + beta and alpha != 0:
    alpha is Trd(c), a nonzero functional, so some basis element qualifies.
    """
    F = A.F
    if A.dim != 4:
        raise UnsupportedInputError("symbol recovery needs a 4-dimensional algebra")
    one = A.one()
    basis = [A.basis_el(i) for i in range(4)]

    def kernel_elements(images: list) -> list:
        """The kernel of the linear map sending basis[c] to images[c]."""
        return [El(A, v) for v in kernel(F, [im.c for im in images], 4)]

    if F.char != 2:
        # the regular trace is twice the reduced trace, so the trace-zero
        # part of c is c - (regular trace / 4) 1
        quarter = F.inv(F.from_int(4))
        pure = []
        for c in basis:
            t = F.zero()
            for i in range(4):
                t = F.add(t, A.mul(c, basis[i]).c.get(i, F.zero()))
            pure.append(c - F.mul(t, quarter) * one)
        x, a = square_unit(A, pure, "invertible trace-zero element")
        # y anticommuting with x: kernel of L_x + R_x
        y, b = square_unit(A, kernel_elements([A.mul(x, e) + A.mul(e, x) for e in basis]),
                           "anticommuting unit")
        gens = [x, y]
    else:
        # u with u^2 = u + a, then v with vu = (u+1)v and v^2 = b
        for c in itertools.islice(signed_sums(basis), len(basis) ** 2):
            if as_scalar(A, c) is not None:
                continue
            ab = solve(F, [c.c, one.c], A.mul(c, c).c)
            if ab is not None and 0 in ab:
                alpha, beta = ab[0], ab.get(1, F.zero())
                u, a = F.inv(alpha) * c, F.div(beta, F.mul(alpha, alpha))
                break
        else:
            raise CertificationError("no separable generator found")
        # v u + u v = v: kernel of L_u + R_u - 1
        v, b = square_unit(A, kernel_elements([A.mul(u, e) + A.mul(e, u) - e for e in basis]),
                           "twisted-commuting unit")
        gens = [u, v]
    phi = hom_on_generators(QuaternionAlgebra(F, a, b), A, gens, label="symbol")
    phi.verify()
    if not phi.is_bijective():
        raise CertificationError("symbol witness is not an isomorphism")
    return (a, b)


# ---------------------------------------------------------------------------
# Clifford classes of quadratic forms

def clifford_class_of_form(q) -> BrauerClass:
    """[C(q)] for even-dimensional q, [C0(q)] for odd-dimensional q.

    Over finite fields the class is trivial.  Over Q (char 0) it is
    computed by the splitting recursion
    [C(<b1, ..., bm>)] = (b1, b2) * [C(-b1 b2 <b3, ..., bm>)],
    and for odd dimension [C0(q)] = [C(<-a1 a2, ..., -a1 an>)].
    """
    F = q.F
    if not isinstance(F, RationalField):
        return trivial_class(F)
    diag = q.diagonalization()
    if any(F.is_zero(d) for d in diag):
        raise UnsupportedInputError("Clifford class needs a regular form")
    if q.n % 2:
        a1 = diag[0]
        diag = [F.neg(F.mul(a1, a)) for a in diag[1:]]
    return _clifford_class_even(diag)


def _clifford_class_even(diag: list) -> BrauerClass:
    """The splitting recursion.  Its entries grow as products of the input
    entries, beyond what can be factored, but each is +- such a product, so
    its odd primes are among the inputs': those are factored once, and the
    Hilbert symbols on the large entries need no factoring."""
    F = QQ
    symbols = []
    work = list(diag)
    while work:
        b1, b2 = work[0], work[1]
        symbols.append((b1, b2))
        scale = F.neg(F.mul(b1, b2))
        work = [F.mul(scale, a) for a in work[2:]]
    return BrauerClass(F, symbols, _support_places(symbols, relevant_places(diag)))


def even_clifford_classes(q):
    """Classes attached to C0(q) for even-dimensional regular q over Q.

    Returns ("split", c_plus, c_minus) when the discriminant is trivial
    (both equal [C(q)] for a form, the adjoint algebra being split), or
    ("field", EtaleQuadratic, RestrictedClass) when the center is a field.
    """
    et = q.discriminant_algebra()
    c = clifford_class_of_form(q)
    if et.split:
        return ("split", c, c)
    return ("field", et, c.restrict(et))


# ---------------------------------------------------------------------------
# quaternion model search: F2 solves, widened until one succeeds (Serre III.4)

def signed_products(primes: list):
    """+-1, +-p1, +-p2, +-p1 p2, +-p3, ...: the order of solve_symbols."""
    for mask in range(1 << len(primes)):
        prod = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        yield QQ.from_int(prod)
        yield QQ.from_int(-prod)


def widening(primes):
    """The sorted primes, then each time with the least prime not yet in."""
    primes = sorted(primes)
    while True:
        yield primes
        p = 2
        while p in primes or not _is_prime(p):
            p += 1
        primes = sorted([*primes, p])


def solve_symbols(d, wanted, primes: list, *fields: EtaleQuadratic):
    """The first x of signed_products(primes) with (x, d)_v = -1 exactly at
    the wanted places, among those split in every given field; None if
    there is none.  primes must hold the odd primes of d and of the wanted
    places, so that no other place can have (x, d)_v = -1.  solve sets the
    free exponents of -1, p1, p2, ... to zero: the least solution when p_k
    outweighs all exponents before it."""
    gens = [QQ.from_int(g) for g in [-1, *primes]]
    places = [v for v in [PLACE_REAL] + [Place(p) for p in sorted({2, *primes})]
              if all(et.place_behavior(v) == "split" for et in fields)]
    cols = [{v: 1 for v in places if hilbert_symbol(g, d, v) == -1} for g in gens]
    x = solve(PrimeField(2), cols, {v: 1 for v in places if v in wanted})
    return None if x is None else math.prod((gens[i] for i in x), start=QQ.one())


def quaternion_model(cls: BrauerClass) -> tuple:
    """A single symbol (a, b) over Q with the same class.  (1, 1) if trivial.
    a runs over signed_products of the support's primes, b is solved for,
    and the primes widen until some a has a b."""
    if cls.is_trivial():
        return (cls.F.one(), cls.F.one())
    for primes in widening(v.p for v in cls.support if not v.is_real):
        for a in signed_products(primes):
            b = solve_symbols(a, cls.support, primes)
            if b is not None:
                return (a, b)
