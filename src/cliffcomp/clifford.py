"""Clifford algebras: of a quadratic space, and of an algebra with a
quadratic pair.

The quadratic-space algebra C(V, q) works over any field by Chevalley's
recursion: e_i e_T, for t the lowest index of T, is e_{T+i} when i < t,
q(e_i) e_{T-t} when i = t, and b_q(e_t, e_i) e_{T-t} - e_t (e_i e_{T-t})
when i > t, which is valid in characteristic 2 as well.  Each such
product is memoized on the algebra, and e_S e_T applies the generators of
S to e_T one at a time.  The even part C0 reads these products on demand
and carries its own embed and project.

The pair construction quotients the tensor algebra of the underlying
space of A by two families of relations: symmetric elements s are
identified with the scalar f(s), and sandwich elements u of a designated
subspace W of A (x) A are identified with Sand(u)(l), where l is a
splitting element of the pair; one pass forms the e_i y e_j of the
sandwich condition and the e_i l e_j.  Rather than saturating inside the
huge tensor algebra of A, every relation is first pushed down to the tensor
algebra of a complement N of the symmetric subspace (each symmetric
letter collapses to a scalar), where the ideal is saturated by sparse
echelon over word columns.  The construction is certified: the quotient
dimension must be 2^(deg A - 1) with no canonical word of the saturation
degree, multiplication must be associative, and the involution induced by
reversed-sigma words must verify as an involution.

The saturation degree is read off deg A = 2m, once: max(3, m + 1).  Over a
splitting field the algebra is C0(V, q) with dim V = 2m (KMRT, section 8),
and a word of k letters of A lands in the span of the products of at most
2k vectors of V.  For k < m that span misses e_1 ... e_2m.  A quotient
certifies at degree d only if its canonical words are all shorter than d
and span the algebra, so d - 1 >= m: degree m + 1 is the least that can.
The floor of 3 is the least degree at which the pushed-down relations,
words of length 2, are padded at all.  A quotient that fails at its one
degree raises SaturationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra, El, ExplicitAlgebra, Involution, restrict_involution
from .errors import CertificationError, InputTooLargeError, SaturationError, UnsupportedInputError
from .linalg import SparseEchelon, apply_cols, axpy, inverse, kernel, rref
from .quadform import QuadraticSpace

# C(V, q) has 2^n basis elements and its products fill up to 4^n table
# entries: a witness search at n = 10 takes seconds, one at n = 11 ran
# past a minute and hundreds of MB, so larger spaces are refused up front.
MAX_GENERATORS = 10

# The pushed-down sandwich relations are words of length at most 2, so no
# saturation below degree 3 pads them at all.
MIN_SATURATION_DEGREE = 3


class CliffordAlgebra(Algebra):
    """C(V, q), basis e_S over subsets S of the generator set (bitmask order)."""

    def __init__(self, q: QuadraticSpace, label: Optional[str] = None):
        if q.n > MAX_GENERATORS:
            raise InputTooLargeError(
                f"Clifford algebras are built for n <= {MAX_GENERATORS}, got n = {q.n}"
            )
        super().__init__()
        self.q = q
        self.F = q.F
        self.n = q.n
        self.dim = 1 << q.n
        self._unit = {0: self.F.one()}
        self.label = label or f"C({q.label})"
        self._B = q.polar_matrix()
        self._gen_cache: dict = {}

    def _mask_to_word(self, mask: int) -> tuple:
        return tuple(i for i in range(self.n) if mask >> i & 1)

    def _gen_times(self, i: int, T: int) -> dict:
        """e_i e_T by Chevalley's recursion on the lowest index t of T."""
        key = (i, T)
        out = self._gen_cache.get(key)
        if out is not None:
            return out
        F = self.F
        low = T & -T
        bit = 1 << i
        if not T or bit < low:
            out = {T | bit: F.one()}
        elif bit == low:
            s = self.q.M[i][i]
            out = {} if F.is_zero(s) else {T ^ low: s}
        else:
            # e_i e_t = b(e_t, e_i) - e_t e_i; e_t then lands in front of
            # every mask of e_i e_{T - t}, whose indices all exceed t
            rest = T ^ low
            b = self._B[low.bit_length() - 1][i]
            out = {} if F.is_zero(b) else {rest: b}
            for m, c in self._gen_times(i, rest).items():
                out[m | low] = F.neg(c)
        self._gen_cache[key] = out
        return out

    def _gens_times(self, word, x: dict) -> dict:
        """The generators of word applied to coords x from the left, last first."""
        F = self.F
        for i in reversed(word):
            acc: dict = {}
            for m, c in x.items():
                axpy(F, acc, c, self._gen_times(i, m))
            x = acc
        return x

    def reduce_word(self, word: tuple) -> dict:
        """Canonical coords (mask -> coeff) of a generator word."""
        return self._gens_times(word, {0: self.F.one()})

    def mul_bb(self, i: int, j: int) -> dict:
        if not i:
            return {j: self.F.one()}
        low = i & -i
        return self._gens_times((low.bit_length() - 1,), self._mul_bb_cached(i ^ low, j))

    def embed_vector(self, v: list) -> El:
        """The image of a vector of V inside C."""
        F = self.F
        return El(self, {1 << i: c for i, c in enumerate(v) if not F.is_zero(c)})

    def reversal(self) -> Involution:
        """The involution fixing V pointwise: reverses generator words."""
        imgs = [self.reduce_word(self._mask_to_word(m)[::-1]) for m in range(self.dim)]
        return Involution(self, imgs, label="reversal")


class EvenCliffordAlgebra(Algebra):
    """C0(V, q) on the even basis masks of C(V, q), in increasing order.

    A product of two basis elements is C's cached product with its masks
    renumbered, so no structure table is built ahead of the reads.
    """

    def __init__(self, C: CliffordAlgebra):
        super().__init__()
        self.C = C
        self.F = C.F
        self.masks = [m for m in range(C.dim) if bin(m).count("1") % 2 == 0]
        self.pos = {m: t for t, m in enumerate(self.masks)}
        self.dim = len(self.masks)
        self._unit = {0: C.F.one()}
        self.label = f"C0({C.q.label})"

    def mul_bb(self, i: int, j: int) -> dict:
        pos = self.pos
        return {pos[m]: v for m, v in self.C._mul_bb_cached(self.masks[i], self.masks[j]).items()}

    def embed(self, x: El) -> El:
        """x in C, on the even basis masks."""
        return El(self.C, {self.masks[t]: v for t, v in x.c.items()})

    def project(self, x: El) -> El:
        """The coordinates of an even element of C on the basis of C0."""
        if any(m not in self.pos for m in x.c):
            raise UnsupportedInputError("element has odd components")
        return El(self, {self.pos[m]: v for m, v in x.c.items()})


def even_clifford(q: QuadraticSpace):
    """C0(V, q) with its reversal involution restricted from C(V, q),
    certified."""
    C = CliffordAlgebra(q)
    C0 = EvenCliffordAlgebra(C)
    tau = restrict_involution(C0, C.reversal(), label="reversal")
    tau.verify()
    return C, C0, C0.embed, C0.project, tau


# ---------------------------------------------------------------------------
# Clifford algebra of an algebra with quadratic pair


@dataclass
class PairCliffordData:
    """Certified output of the pair construction."""

    C: ExplicitAlgebra
    sigma_bar: Involution
    a_images: list          # coords of the canonical image of each A-basis vector
    canon_words: list       # quotient basis words over complement letters
    n_letters: list         # A-basis indices forming the complement N
    saturation_degree: int

    def embed_a(self, x: El) -> El:
        """Canonical map A -> C (not an algebra map; linear)."""
        return El(self.C, apply_cols(self.C.F, self.a_images, x.c))


def _w_space_paper(A: Algebra, sigma: Involution, ell: El) -> tuple:
    """Basis of {u in A(x)A : Sand(u)(y) = 0 for all y in im(1 - sigma)},
    the sandwich condition, as sparse dicts keyed by (i, j) basis pairs;
    and the e_i l e_j, at i * dim + j, formed in the same pass."""
    F = A.F
    d = A.dim
    ys = []
    seen = SparseEchelon(F)
    for t in range(d):
        x = A.basis_el(t)
        y = x - sigma.apply(x)
        if seen.insert(y.c) is not None:
            ys.append(y)
    # column i * d + j holds e_i y e_j for every y, under labels (y index, r)
    cols, ell_sandwiches = [], []
    for i in range(d):
        lefts = [A.mul(A.basis_el(i), y) for y in ys]
        left_ell = A.mul(A.basis_el(i), ell)
        for j in range(d):
            ej = A.basis_el(j)
            cols.append({(k, r): v for k, left in enumerate(lefts)
                         for r, v in A.mul(left, ej).c.items()})
            ell_sandwiches.append(A.mul(left_ell, ej).c)
    w_basis = [{(t // d, t % d): c for t, c in v.items()} for v in kernel(F, cols, d * d)]
    return w_basis, ell_sandwiches


class _PairQuotient:
    """Workhorse: saturate the pushed-down ideal and build the quotient."""

    def __init__(self, A: Algebra, sigma: Involution, sym_rows: list, f_on_sym: list):
        self.A = A
        self.F = A.F
        self.sigma = sigma
        self.sym_rows = sym_rows
        self.f_on_sym = f_on_sym
        self._setup_letters()

    def _setup_letters(self):
        """Choose complement letters and decompose every A-basis vector."""
        F = self.F
        d = self.A.dim
        spanned = rref(F, self.sym_rows)
        n_letters = [i for i in range(d) if spanned.insert({i: F.one()}) is not None]
        self.n_letters = n_letters
        self.nu = len(n_letters)
        # solve e_i = sum_s c_s sym_s + sum_p d_p e_{n_p} for all i at once
        cols = self.sym_rows + [{t: F.one()} for t in n_letters]
        Minv = inverse(F, cols)
        if Minv is None:
            raise CertificationError("symmetric subspace plus complement fails to span")
        # letter_decomp[i] is e_i pushed down to T(N), as words over the
        # letters: a symmetric element s becomes the scalar f(s), the word
        # (), and complement letter p the word (p,).  apply_cols with these
        # columns pushes down any element of A.
        words = [{(): f} for f in self.f_on_sym] + [{(p,): F.one()} for p in range(self.nu)]
        self.letter_decomp = [apply_cols(F, words, coeffs) for coeffs in Minv]

    def _word_product(self, wa: dict, wb: dict) -> dict:
        F = self.F
        out: dict = {}
        for w1, c1 in wa.items():
            axpy(F, out, c1, {w1 + w2: c2 for w2, c2 in wb.items()})
        return out

    def generator_rows(self, w_basis: list, ell_sandwiches: list) -> list:
        """Pushed-down relations u - Sand(u)(l) for u in the sandwich basis.

        Each is the sum of u_ij R_ij, where R_ij = phi_i phi_j - phi(e_i l e_j)
        is pushed down once per pair (i, j), on its first use; e_i l e_j is
        read from ell_sandwiches, as _w_space_paper formed it.
        """
        F = self.F
        d = self.A.dim
        phi = self.letter_decomp
        pair_rows: dict = {}
        out = []
        for u in w_basis:
            row: dict = {}
            for ij, c in u.items():
                if ij not in pair_rows:
                    i, j = ij
                    sand = apply_cols(F, phi, ell_sandwiches[i * d + j])
                    pair_rows[ij] = axpy(F, self._word_product(phi[i], phi[j]), F.neg(F.one()), sand)
                axpy(F, row, c, pair_rows[ij])
            if row:
                out.append(row)
        return out

    def saturate(self, gens: list, degree: int):
        """Echelonize the paddings x g y with len(x) + deg g + len(y) <= degree.

        Padding by fixed words x, y is linear in g, but the allowance
        depends on deg g, the length of g's longest word.  So the rows are
        bucketed by degree and only a basis of each bucket (its rref) is
        padded, with the bucket's allowance: the padded span is that of
        every row padded.  One basis of all rows would not do, since a
        combination whose top words cancel has a lower degree and would
        take longer paddings, enlarging the truncated ideal.  A fully
        reduced echelon with unit pivots is unique for its span and column
        order, so the echelon is the one that padding every row gives.
        """
        ech = SparseEchelon(self.F, key=lambda w: (-len(w), w))
        pads = self._words(max(0, degree - 2))
        buckets: dict = {}
        for g in gens:
            buckets.setdefault(max((len(w) for w in g), default=0), []).append(g)
        for gdeg, rows in buckets.items():
            for g in rref(self.F, rows).rows.values():
                for x in pads:
                    for y in pads:
                        if len(x) + gdeg + len(y) <= degree:
                            ech.insert({x + w + y: c for w, c in g.items()})
        return ech

    def _words(self, length: int) -> list:
        """The words over the complement letters of length <= length, shortest first."""
        words, frontier = [()], [()]
        for _ in range(length):
            frontier = [w + (a,) for w in frontier for a in range(self.nu)]
            words.extend(frontier)
        return words

    def quotient(self, ech: SparseEchelon, degree: int):
        """Canonical words (non-pivots) of length <= degree."""
        return [w for w in self._words(degree) if w not in ech.rows]


def clifford_of_pair(pair) -> PairCliffordData:
    """The Clifford algebra of an algebra with quadratic pair, certified.

    The sandwich relations come from the subspace of A (x) A whose sandwich
    action kills im(1 - sigma); the ideal is saturated once, at degree
    max(3, deg A / 2 + 1), the least that can certify (see the module
    docstring).  Raises SaturationError when that degree does not.
    """
    A = pair.A
    deg = A.deg
    if deg is None or deg % 2:
        raise UnsupportedInputError("pair construction needs even degree")
    expected = 1 << (deg - 1)
    degree = max(MIN_SATURATION_DEGREE, deg // 2 + 1)
    worker = _PairQuotient(A, pair.sigma, pair.sym_rows, pair.f_on_sym)
    w_basis, ell_sandwiches = _w_space_paper(A, pair.sigma, pair.ell)
    ech = worker.saturate(worker.generator_rows(w_basis, ell_sandwiches), degree)
    canon = worker.quotient(ech, degree)
    top = sum(1 for w in canon if len(w) == degree)
    if len(canon) != expected or top:
        raise SaturationError(
            f"the sandwich relations did not certify at degree {degree}: "
            f"{len(canon)} canonical words, {top} of them of length {degree}; "
            f"expected {expected}, none of length {degree}"
        )
    return _finalize(pair, worker, ech, canon, degree)


def _finalize(pair, worker: _PairQuotient, ech: SparseEchelon, canon: list,
              degree: int) -> PairCliffordData:
    F = worker.F
    A = worker.A
    index = {w: t for t, w in enumerate(canon)}
    memo: dict = {}

    def reduce_long(word: tuple) -> dict:
        if word in memo:
            return memo[word]
        if len(word) <= degree:
            red = ech.reduce({word: F.one()})
            for w in red:
                if w not in index:
                    raise CertificationError(f"reduction escaped the canonical set at {w}")
            memo[word] = red
            return red
        head, rest = word[0], word[1:]
        out: dict = {}
        for w2, c2 in reduce_long(rest).items():
            axpy(F, out, c2, reduce_long((head,) + w2))
        memo[word] = out
        return out

    def reduce_coords(x: dict) -> dict:
        """Coords on the canonical basis of a combination of words."""
        red: dict = {}
        for w, c in x.items():
            axpy(F, red, c, reduce_long(w))
        return {index[w]: v for w, v in red.items()}

    dim = len(canon)
    table = {}
    for a, wa in enumerate(canon):
        for b, wb in enumerate(canon):
            red = reduce_long(wa + wb)
            table[(a, b)] = {index[w]: v for w, v in red.items()}
    C = ExplicitAlgebra(F, dim, table, {index[()]: F.one()}, label=f"C({A.label},pair)")

    # canonical linear map A -> C
    a_images = [reduce_coords(phi) for phi in worker.letter_decomp]

    # the involution: reverse words, apply sigma to each letter, push down
    sig_letter = [apply_cols(F, worker.letter_decomp, pair.sigma.images[t]) for t in worker.n_letters]
    imgs = []
    for w in canon:
        acc = {(): F.one()}
        for p in reversed(w):
            acc = worker._word_product(acc, sig_letter[p])
        imgs.append(reduce_coords(acc))
    sigma_bar = Involution(C, imgs, label="sigma_bar")
    sigma_bar.verify()
    return PairCliffordData(
        C=C,
        sigma_bar=sigma_bar,
        a_images=a_images,
        canon_words=canon,
        n_letters=worker.n_letters,
        saturation_degree=degree,
    )


def split_compare(data: PairCliffordData, aux: dict):
    """Certify C(Ad(q)) against the even Clifford algebra of q.

    The identification sends the class of the rank-one map phi(v (x) w) to
    the product v w inside C0(q); on matrix units E_rc this is
    e_r (B^-1 e_c).  Returns the verified isomorphism together with the
    even Clifford data, and checks it intertwines sigma_bar with the
    reversal involution.
    """
    from .algebra import AlgebraHom

    q = aux["q"]
    A = aux["A"]
    Binv = aux["Binv"]
    F = q.F
    Cfull, C0, embed, project, tau = even_clifford(q)

    def psi_of_letter(t: int) -> El:
        r, c, _ = A._unidx(t)
        er = [F.one() if s == r else F.zero() for s in range(q.n)]
        bc = [Binv[c].get(s, F.zero()) for s in range(q.n)]
        prod = Cfull.mul(Cfull.embed_vector(er), Cfull.embed_vector(bc))
        return project(prod)

    letter_imgs = [psi_of_letter(t) for t in data.n_letters]
    imgs = []
    for w in data.canon_words:
        acc = C0.one()
        for p in w:
            acc = acc * letter_imgs[p]
        imgs.append(acc.c)
    phi = AlgebraHom(data.C, C0, imgs, label="pair-vs-even")
    phi.verify()
    if not phi.is_bijective():
        raise CertificationError("pair Clifford does not match the even Clifford algebra")
    if not phi.respects(data.sigma_bar, tau):
        raise CertificationError("sigma_bar does not match the reversal involution")
    return phi, C0, tau
