"""Quadratic spaces over an exact field, any characteristic.

A form is stored as an upper-triangular coefficient matrix M with
q(x) = x^t M x, so q is meaningful in characteristic 2 where the
polar form b_q(x, y) = q(x+y) - q(x) - q(y) has matrix M + M^t.

Regular means b_q nondegenerate.  In characteristic 2 an odd-dimensional
form is never regular; the right notion is semi-regular: the radical of
b_q is one-dimensional and q does not vanish on it.

Outside characteristic 2 the diagonalization is a congruence elimination
on the Gram matrix B/2, and the discriminant is the signed product of
its entries, so no second elimination computes a determinant.

Each space computes each invariant once: the polar matrix, the
diagonalization and the regularity are kept on the object at their first
request, and the getters hand out copies.  Outside characteristic 2 the
regularity is read from the diagonalization (a congruence keeps the rank,
so the form is regular exactly when no diagonal entry is zero); in
characteristic 2 it is the radical of the polar form.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import UnsupportedInputError
from .linalg import kernel
from .scalars import Field, quad_ext_info


class QuadraticSpace:
    def __init__(self, F: Field, coeffs: list, label: Optional[str] = None):
        self.F = F
        n = len(coeffs)
        for i, row in enumerate(coeffs):
            if len(row) != n:
                raise UnsupportedInputError("coefficient matrix must be square")
            for j in range(i):
                if not F.is_zero(row[j]):
                    raise UnsupportedInputError("coefficient matrix must be upper triangular")
        self.n = n
        self.M = [list(row) for row in coeffs]
        self.label = label or "q"
        self._B = None           # polar matrix, never handed out
        self._diag = None        # diagonalization, a tuple
        self._regularity = None

    @classmethod
    def diagonal(cls, F: Field, entries: list, label: Optional[str] = None):
        n = len(entries)
        M = [[entries[i] if i == j else F.zero() for j in range(n)] for i in range(n)]
        lbl = label or "<" + ",".join(F.fmt(a) for a in entries) + ">"
        return cls(F, M, label=lbl)

    @classmethod
    def from_upper_entries(cls, F: Field, n: int, entries: dict, label=None):
        """entries maps (i, j) with i <= j to coefficients."""
        M = [[F.zero()] * n for _ in range(n)]
        for (i, j), v in entries.items():
            if i > j:
                raise UnsupportedInputError("entries must have i <= j")
            M[i][j] = v
        return cls(F, M, label=label)

    def q(self, x: list):
        F = self.F
        acc = F.zero()
        for i in range(self.n):
            if F.is_zero(x[i]):
                continue
            for j in range(i, self.n):
                if not F.is_zero(self.M[i][j]) and not F.is_zero(x[j]):
                    acc = F.add(acc, F.mul(self.M[i][j], F.mul(x[i], x[j])))
        return acc

    def _polar(self) -> list:
        """The polar matrix M + M^t, computed once; callers only read it."""
        if self._B is None:
            F, M, n = self.F, self.M, self.n
            self._B = [[F.add(M[i][j], M[j][i]) for j in range(n)] for i in range(n)]
        return self._B

    def polar_matrix(self) -> list:
        return [list(row) for row in self._polar()]

    def polar_columns(self) -> list:
        """The columns of the polar matrix as sparse dicts, as linalg takes a map."""
        F = self.F
        B = self._polar()
        return [{i: B[i][j] for i in range(self.n) if not F.is_zero(B[i][j])} for j in range(self.n)]

    def bq(self, x: list, y: list):
        F = self.F
        B = self._polar()
        acc = F.zero()
        for i in range(self.n):
            if F.is_zero(x[i]):
                continue
            for j in range(self.n):
                if not F.is_zero(y[j]):
                    acc = F.add(acc, F.mul(x[i], F.mul(B[i][j], y[j])))
        return acc

    def radical(self) -> list:
        """Basis of the radical of the polar form, as sparse dicts."""
        return kernel(self.F, self.polar_columns(), self.n)

    def regularity(self) -> str:
        """'regular', 'semi-regular', or 'degenerate', computed once."""
        if self._regularity is None:
            self._regularity = self._classify()
        return self._regularity

    def _classify(self) -> str:
        F = self.F
        if F.char != 2:
            return "degenerate" if any(F.is_zero(a) for a in self.diagonalization()) else "regular"
        rad = self.radical()
        if not rad:
            return "regular"
        if self.n % 2 == 1 and len(rad) == 1:
            if not F.is_zero(self.q([rad[0].get(i, F.zero()) for i in range(self.n)])):
                return "semi-regular"
        return "degenerate"

    def is_usable(self) -> bool:
        return self.regularity() in ("regular", "semi-regular")

    def scale(self, lam) -> "QuadraticSpace":
        F = self.F
        if F.is_zero(lam):
            raise UnsupportedInputError("scaling by zero")
        M = [[F.mul(lam, v) for v in row] for row in self.M]
        return QuadraticSpace(F, M, label=f"{F.fmt(lam)}*{self.label}")

    def orthogonal_sum(self, other: "QuadraticSpace") -> "QuadraticSpace":
        F = self.F
        n, m = self.n, other.n
        M = [[F.zero()] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                M[i][j] = self.M[i][j]
        for i in range(m):
            for j in range(m):
                M[n + i][n + j] = other.M[i][j]
        return QuadraticSpace(F, M, label=f"{self.label}+{other.label}")

    def restrict(self, vectors: list, label=None) -> "QuadraticSpace":
        """The form on the span of the given (independent) vectors."""
        F = self.F
        k = len(vectors)
        Mfull = [[F.zero()] * k for _ in range(k)]
        for a in range(k):
            Mfull[a][a] = self.q(vectors[a])
            for b in range(a + 1, k):
                Mfull[a][b] = self.bq(vectors[a], vectors[b])
        return QuadraticSpace(F, Mfull, label=label or f"{self.label}|W")

    def diagonalization(self) -> list:
        """Diagonal entries of an equivalent diagonal form (char != 2 only).

        Congruence elimination on the Gram matrix G = B/2.  Pivot at the
        first nonzero diagonal entry; if the diagonal vanishes, shear at the
        first pair a < b with G[a][a] + G[a][b] + G[b][a] + G[b][b] != 0
        (add row and column b to row and column a) and pivot at a.  Record
        the pivot and go on with its Schur complement.  Every step is a
        congruence of determinant +-1, so the entries multiply to det(G).
        The entries are computed once; each call returns a fresh list.
        """
        F = self.F
        if F.char == 2:
            raise UnsupportedInputError("no diagonal form in characteristic 2")
        if self._diag is None:
            self._diag = tuple(self._eliminate())
        return list(self._diag)

    def _eliminate(self) -> list:
        F = self.F
        half = F.inv(F.from_int(2))
        G = [[F.mul(half, v) for v in row] for row in self._polar()]
        out = []
        while G:
            k = len(G)
            p = next((i for i in range(k) if not F.is_zero(G[i][i])), None)
            if p is None:
                shear = next(((a, b) for a in range(k) for b in range(a + 1, k)
                              if not F.is_zero(F.add(F.add(G[a][a], G[a][b]),
                                                     F.add(G[b][a], G[b][b])))), None)
                if shear is None:
                    # the form vanishes identically on the remaining space
                    out.extend(F.zero() for _ in G)
                    break
                p, b = shear
                G[p] = [F.add(x, y) for x, y in zip(G[p], G[b])]
                for row in G:
                    row[p] = F.add(row[p], row[b])
            d = G[p][p]
            out.append(d)
            dinv = F.inv(d)
            rest = [i for i in range(k) if i != p]
            schur = []
            for r in rest:
                c = F.mul(dinv, G[r][p])
                row = G[r]
                if F.is_zero(c):
                    schur.append([row[s] for s in rest])
                else:
                    schur.append([F.sub(row[s], F.mul(c, G[p][s])) for s in rest])
            G = schur
        return out

    def symplectic_basis(self) -> list:
        """Pairs (u_i, v_i) with b(u_i, v_i) = 1, mutually orthogonal planes.

        Requires the polar form to be nondegenerate and alternating; the
        reduction below assumes b(x, x) = 0, i.e. characteristic 2.
        """
        F = self.F
        if F.char != 2:
            raise UnsupportedInputError("symplectic reduction implemented for char 2 only")
        if self.regularity() != "regular":
            raise UnsupportedInputError("symplectic basis needs a regular form")
        n = self.n
        vecs = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
        pairs = []
        while vecs:
            u = vecs[0]
            mate = None
            for v in vecs[1:]:
                if not F.is_zero(self.bq(u, v)):
                    mate = v
                    break
            if mate is None:
                raise UnsupportedInputError("polar form degenerate on remaining space")
            c = F.inv(self.bq(u, mate))
            v = [F.mul(c, x) for x in mate]
            pairs.append((u, v))
            rest = []
            for w in vecs:
                if w is u or w is mate:
                    continue
                # make w orthogonal to the plane (u, v)
                cu = self.bq(v, w)
                cv = self.bq(u, w)
                w2 = [
                    F.sub(x, F.add(F.mul(cu, uu), F.mul(cv, vv)))
                    for x, uu, vv in zip(w, u, v)
                ]
                rest.append(w2)
            vecs = rest
        return pairs

    def arf_invariant(self):
        """Arf invariant (char 2, regular even-dimensional): sum q(u_i) q(v_i)."""
        F = self.F
        if F.char != 2:
            raise UnsupportedInputError("Arf invariant lives in characteristic 2")
        acc = F.zero()
        for u, v in self.symplectic_basis():
            acc = F.add(acc, F.mul(self.q(u), self.q(v)))
        return acc

    def center_datum(self):
        """Datum of the discriminant quadratic etale algebra.

        char != 2: m = (-1)^(n(n-1)/2) det(Gram), the determinant being the
        product of the diagonalization's entries; char 2 (n even): the Arf
        invariant as an Artin-Schreier datum.
        """
        F = self.F
        if F.char == 2:
            if self.n % 2:
                raise UnsupportedInputError("odd-dimensional center datum undefined in char 2")
            return self.arf_invariant()
        d = F.one()
        for a in self.diagonalization():
            d = F.mul(d, a)
        if F.is_zero(d):
            raise UnsupportedInputError("degenerate form has no discriminant datum")
        e = (self.n * (self.n - 1) // 2) % 2
        return F.neg(d) if e else d

    def discriminant_algebra(self):
        return quad_ext_info(self.F, self.center_datum())

    def to_json(self) -> dict:
        F = self.F
        return {
            "base": F.to_json(),
            "dim": self.n,
            "coeffs": [[F.fmt(v) for v in row] for row in self.M],
        }

    def __repr__(self):
        return f"QuadraticSpace({self.label}, n={self.n} over {self.F})"


RANDOM_FORM_DRAWS = 200


def random_form(F: Field, n: int, rng: random.Random) -> QuadraticSpace:
    """A random regular (or semi-regular) n-dimensional form, from at most
    RANDOM_FORM_DRAWS seeded draws."""
    for _ in range(RANDOM_FORM_DRAWS):
        M = [[F.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                draw = rng.randint(-4, 4) if F.char == 0 else rng.randrange(F.order)
                M[i][j] = F.from_int(draw)
        q = QuadraticSpace(F, M)
        if q.is_usable():
            return q
    raise UnsupportedInputError(f"no usable random form found in {RANDOM_FORM_DRAWS} draws")


def all_small_forms(F: Field, n: int, coeff_pool: Optional[list] = None):
    """Every usable upper-triangular form with entries from the pool (tests)."""
    import itertools

    if coeff_pool is None:
        coeff_pool = list(F.elements())
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    for combo in itertools.product(coeff_pool, repeat=len(slots)):
        M = [[F.zero()] * n for _ in range(n)]
        for (i, j), v in zip(slots, combo):
            M[i][j] = v
        q = QuadraticSpace(F, M)
        if q.is_usable():
            yield q
