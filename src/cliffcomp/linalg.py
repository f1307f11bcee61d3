"""Exact linear algebra over an arbitrary Field: the sparse coordinate
format, and one sparse echelon.

linalg owns sparse coordinates.  A vector is a dict {label: coefficient}
that never stores a zero; axpy adds a multiple of one vector into another
in place, and it is the only loop in the program that accumulates such a
sum.  A linear map is given by the list of its column images: cols[j] is
the image of the j-th coordinate vector.  That is the form in which the
algebras already hold their maps (products x e_j, Involution.images,
AlgebraHom.images), so nothing is converted on the way in; apply_cols
maps coordinates through it, and vectors of the domain come back from
kernel and solve as dicts {column index: coefficient} with keys in
increasing order.

SparseEchelon is the only elimination.  Its rows are dicts keyed by
column labels with a caller-supplied column order; the pivot of a row is
its minimal column, and the stored form stays fully reduced, so it is the
unique reduced echelon form of the span of the rows inserted.  rref
inserts dict rows and returns the echelon, from which rank and span
membership are read.  kernel, solve and inverse gather the map's rows
(the entries of every column under one row label), insert them into one
echelon over the column indices 0, 1, ... and read the answer off it.
Determinants are not computed here: the one the program needs, the
discriminant of a form, is the product of the entries of the form's
diagonalization (quadform).
"""

from __future__ import annotations

from .scalars import Field


def axpy(F: Field, acc: dict, c, x: dict) -> dict:
    """acc <- acc + c x in place, dropping every key whose sum is zero;
    returns acc."""
    zero = F.zero()
    for k, v in x.items():
        nv = F.add(acc.get(k, zero), F.mul(c, v))
        if F.is_zero(nv):
            acc.pop(k, None)
        else:
            acc[k] = nv
    return acc


def apply_cols(F: Field, cols, x: dict) -> dict:
    """The image of the coordinates x under the map with columns cols."""
    acc: dict = {}
    for j, xj in x.items():
        axpy(F, acc, xj, cols[j])
    return acc


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
        work = {c: v for c, v in row.items() if not F.is_zero(v)}
        for hit in [c for c in work if c in self.rows]:
            axpy(F, work, F.neg(work[hit]), self.rows[hit])
        return work

    def insert(self, row: dict):
        """Reduce and insert; returns the residue row or None."""
        F = self.F
        res = self.reduce(row)
        if not res:
            return None
        p = self._pivot(res)
        inv = F.inv(res[p])
        new = {c: F.mul(inv, v) for c, v in res.items()}
        # back-substitute into existing rows so the form stays reduced
        for prow in self.rows.values():
            if p in prow:
                axpy(F, prow, F.neg(prow[p]), new)
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
# maps given by their columns, read off one echelon

def rref(F: Field, rows: list) -> SparseEchelon:
    """The reduced echelon form of the span of a list of dict rows."""
    ech = SparseEchelon(F)
    for row in rows:
        ech.insert(row)
    return ech


def _rows(cols) -> dict:
    """The rows of the map with the given columns: row label -> {column index: entry}."""
    rows: dict = {}
    for j, col in enumerate(cols):
        for r, v in col.items():
            rows.setdefault(r, {})[j] = v
    return rows


def kernel(F: Field, cols, n: int) -> list:
    """Basis of the kernel of the map with columns cols[0..n-1].

    One vector per free column f, in increasing order: e_f minus the
    entries of column f of the reduced echelon form, placed at the pivots.
    """
    reduced = rref(F, list(_rows(cols).values())).rows
    pivots = sorted(reduced)
    basis = []
    for fc in range(n):
        if fc in reduced:
            continue
        v = {pc: F.neg(reduced[pc][fc]) for pc in pivots if fc in reduced[pc]}
        v[fc] = F.one()
        basis.append(v)
    return basis


def solve(F: Field, cols: list, b: dict):
    """One x with sum_j x_j cols[j] = b, or None if there is none.

    Free variables are set to zero, so x is the right-hand column of the
    reduced echelon form of (A | b), read at the pivots; b's label,
    len(cols), sorts after every variable.
    """
    n = len(cols)
    reduced = rref(F, list(_rows([*cols, b]).values())).rows
    if n in reduced:
        return None
    return {pc: reduced[pc][n] for pc in sorted(reduced) if n in reduced[pc]}


def inverse(F: Field, cols: list):
    """The columns of the inverse of the map with columns cols[0..n-1] on
    row labels 0..n-1, or None if it is not invertible.

    Column r of the inverse is the x with sum_j x_j cols[j] = e_r.  The
    rows of (A | I) span a space of rank at least n; A is invertible
    exactly when every pivot lies in A's columns, and the inverse is then
    the right-hand block.
    """
    n = len(cols)
    identity = [{r: F.one()} for r in range(n)]
    reduced = rref(F, list(_rows([*cols, *identity]).values())).rows
    if any(p >= n for p in reduced):
        return None
    out: list = [{} for _ in range(n)]
    for p in range(n):
        for c, v in reduced[p].items():
            if c >= n:
                out[c - n][p] = v
    return out
