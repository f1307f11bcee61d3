"""Exact linear algebra over an arbitrary Field, by one sparse echelon.

SparseEchelon is the only elimination.  Its rows are dicts keyed by
column labels with a caller-supplied column order; the pivot of a row is
its minimal column, and the stored form stays fully reduced, so it is the
unique reduced echelon form of the span of the rows inserted.  The dense
entry points (rref, rank, kernel, solve, inv_matrix and
lin_span_contains) take matrices as lists of lists of field elements,
insert their rows into one echelon over columns 0, 1, ... and read the
answer off it; sparse_kernel takes the rows as dicts already.
Determinants are not computed here: the one the program needs, the
discriminant of a form, is the product of the entries of the form's
diagonalization (quadform).
"""

from __future__ import annotations

from .scalars import Field


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


class SparseEchelon:
    """Incremental echelon form over dict-valued rows with ordered columns.

    Columns are arbitrary hashable labels; `key` maps a label to a sort
    key (the labels themselves when None), and the pivot of a row is its
    minimal column under that order.
    insert() reduces a row against the current basis, stores the residue
    scaled to pivot entry 1 if it is nonzero, and returns the residue as
    reduced (None if the row reduced to zero).
    """

    def __init__(self, F: Field, key=None):
        self.F = F
        self.key = key
        self.rows: dict = {}  # pivot label -> reduced row dict

    def _pivot(self, row: dict):
        return min(row, key=self.key)

    def reduce(self, row: dict) -> dict:
        """Fully reduce a row against the basis; returns a new dict.

        Stored rows carry no pivot column but their own, so subtracting
        one of them neither changes the row's entry in another pivot column
        nor brings in a new one: one pass over the row's pivot columns
        clears them all.
        """
        F = self.F
        zero = F.zero()
        work = {c: v for c, v in row.items() if not F.is_zero(v)}
        for hit in [c for c in work if c in self.rows]:
            coef = work[hit]
            for cc, vv in self.rows[hit].items():
                nv = F.sub(work.get(cc, zero), F.mul(coef, vv))
                if F.is_zero(nv):
                    work.pop(cc, None)
                else:
                    work[cc] = nv
        return work

    def insert(self, row: dict):
        """Reduce and insert; returns the residue row or None."""
        F = self.F
        zero = F.zero()
        res = self.reduce(row)
        if not res:
            return None
        p = self._pivot(res)
        inv = F.inv(res[p])
        new = {c: F.mul(inv, v) for c, v in res.items()}
        # back-substitute into existing rows so the form stays reduced
        for prow in self.rows.values():
            if p in prow:
                coef = prow[p]
                for cc, vv in new.items():
                    nv = F.sub(prow.get(cc, zero), F.mul(coef, vv))
                    if F.is_zero(nv):
                        prow.pop(cc, None)
                    else:
                        prow[cc] = nv
        self.rows[p] = new
        return res

    @property
    def pivots(self):
        return set(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


# ---------------------------------------------------------------------------
# dense entry points, read off one echelon

def _sparse(F: Field, row) -> dict:
    return {c: x for c, x in enumerate(row) if not F.is_zero(x)}


def _echelon(F: Field, rows) -> SparseEchelon:
    """The echelon of dense rows, over integer columns in their natural order."""
    ech = SparseEchelon(F)
    for row in rows:
        ech.insert(_sparse(F, row))
    return ech


def rref(F: Field, A):
    """Reduced row echelon form.  Returns (R, pivots, rank)."""
    if not A:
        return [], [], 0
    cols = len(A[0])
    ech = _echelon(F, A)
    pivots = sorted(ech.rows)
    zero = F.zero()
    R = [[ech.rows[p].get(c, zero) for c in range(cols)] for p in pivots]
    R += [[zero] * cols for _ in range(len(A) - len(pivots))]
    return R, pivots, len(pivots)


def rank(F: Field, A) -> int:
    return _echelon(F, A).rank


def kernel(F: Field, A):
    """Basis of the right kernel of A, as a list of vectors."""
    if not A:
        return []
    return sparse_kernel(F, [_sparse(F, row) for row in A], len(A[0]))


def sparse_kernel(F: Field, rows, cols: int):
    """Basis of the right kernel of dict rows over columns 0..cols-1, as
    dense vectors: one per free column, read off the reduced echelon."""
    ech = SparseEchelon(F)
    for row in rows:
        ech.insert(row)
    reduced = ech.rows
    basis = []
    for fc in range(cols):
        if fc in reduced:
            continue
        v = [F.zero()] * cols
        v[fc] = F.one()
        for pc, row in reduced.items():
            if fc in row:
                v[pc] = F.neg(row[fc])
        basis.append(v)
    return basis


def solve(F: Field, A, b):
    """One solution x of A x = b, or None if inconsistent.

    Free variables are set to zero, so x is the right-hand column of the
    reduced echelon form of (A | b), read at the pivots.
    """
    if not A:
        return None if any(not F.is_zero(x) for x in b) else []
    cols = len(A[0])
    rows = _echelon(F, (list(row) + [bv] for row, bv in zip(A, b))).rows
    if cols in rows:
        return None
    x = [F.zero()] * cols
    for pc, row in rows.items():
        x[pc] = row.get(cols, F.zero())
    return x


def inv_matrix(F: Field, A):
    """Inverse of a square matrix, or None if singular.

    (A | I) always has rank n; A is invertible exactly when every pivot
    lies in A's columns, and the inverse is then the right-hand block.
    """
    n = len(A)
    ech = SparseEchelon(F)
    for i, row in enumerate(A):
        ech.insert({**_sparse(F, row), n + i: F.one()})
    if any(p >= n for p in ech.rows):
        return None
    zero = F.zero()
    return [[ech.rows[p].get(n + c, zero) for c in range(n)] for p in range(n)]


def lin_span_contains(F: Field, basis, v) -> bool:
    """Is v in the row span of basis?"""
    return _echelon(F, basis).contains(_sparse(F, v))
