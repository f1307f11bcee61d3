"""Clifford algebras of forms and of quadratic pairs, with certification."""

import dataclasses
import functools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cliffcomp.algebra import QuaternionAlgebra, center_structure, corner_algebra, involution_type
from cliffcomp.brauer import BrauerClass, quaternion_symbol_of, trivial_class
from cliffcomp.clifford import (
    CliffordAlgebra,
    EvenCliffordAlgebra,
    PairCliffordData,
    _PairQuotient,
    _w_space_paper,
    clifford_of_pair,
    even_clifford,
    split_compare,
)
from cliffcomp.compose import construct_composition
from cliffcomp.errors import SaturationError
from cliffcomp.linalg import SparseEchelon, apply_cols, axpy, rref
from cliffcomp.mcd import canonical_involution_type
from cliffcomp.qpair import pair_from_form, pair_on_quaternion_tensor
from cliffcomp.quadform import QuadraticSpace
from cliffcomp.scalars import QQ, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)


def fracs(*ns):
    return [Fraction(n) for n in ns]


# ---------------------------------------------------------------------------
# reference: the branching word rewriter, e_i e_i -> q(e_i) and
# e_j e_i -> b(e_i, e_j) - e_i e_j for j > i, applied to whole words until
# every word is strictly increasing

def ref_reduce_word(C, word):
    F = C.F
    B = C.q.polar_matrix()
    out = {}
    stack = [(tuple(word), F.one())]
    while stack:
        w, c = stack.pop()
        pos = next((t for t in range(len(w) - 1) if w[t] >= w[t + 1]), None)
        if pos is None:
            m = sum(1 << i for i in w)
            nv = F.add(out.get(m, F.zero()), c)
            if F.is_zero(nv):
                out.pop(m, None)
            else:
                out[m] = nv
            continue
        a, b = w[pos], w[pos + 1]
        if a == b:
            if not F.is_zero(C.q.M[a][a]):
                stack.append((w[:pos] + w[pos + 2:], F.mul(c, C.q.M[a][a])))
        else:
            if not F.is_zero(B[b][a]):
                stack.append((w[:pos] + w[pos + 2:], F.mul(c, B[b][a])))
            stack.append((w[:pos] + (b, a) + w[pos + 2:], F.neg(c)))
    return out


def seeded_form(rng, F, n, gram):
    """An upper-triangular form, off-diagonal entries only when gram."""
    def entry():
        return Fraction(rng.randint(-3, 3)) if F.char == 0 else F.from_int(rng.randrange(F.char))

    M = [[entry() if i == j or (gram and j > i) else F.zero() for j in range(n)]
         for i in range(n)]
    return QuadraticSpace(F, M)


def differential_corpus(seed=5):
    rng = random.Random(seed)
    return [
        pytest.param(seeded_form(rng, F, n, gram), id=f"{F}-n{n}-{'gram' if gram else 'diag'}")
        for F, shapes, top in ((F2, (True,), 4), (F3, (False, True), 3), (QQ, (False, True), 5))
        for n in range(1, top + 1)
        for gram in shapes
    ]


@pytest.mark.parametrize("q", differential_corpus())
def test_products_match_the_word_rewriter(q):
    C = CliffordAlgebra(q)
    for S in range(C.dim):
        for T in range(C.dim):
            word = C._mask_to_word(S) + C._mask_to_word(T)
            want = ref_reduce_word(C, word)
            assert C.mul_bb(S, T) == want, (S, T)
            assert C.reduce_word(word) == want, (S, T)
            assert C.reduce_word(word[::-1]) == ref_reduce_word(C, word[::-1]), (S, T)


def test_generator_relations():
    q = QuadraticSpace.diagonal(QQ, fracs(2, -3, 5))
    C = CliffordAlgebra(q)
    assert C.dim == 8
    es = [C.embed_vector([Fraction(1 if i == j else 0) for j in range(3)]) for i in range(3)]
    for i, e in enumerate(es):
        assert e * e == q.M[i][i] * C.one()
        for f in es[i + 1:]:
            assert e * f == -(f * e)


def test_embed_vector_squares_to_value_char2():
    q = QuadraticSpace.from_upper_entries(F2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    C = CliffordAlgebra(q)
    for x in ([1, 0], [0, 1], [1, 1]):
        v = C.embed_vector([F2.from_int(a) for a in x])
        assert v * v == q.q([F2.from_int(a) for a in x]) * C.one()


def test_reversal_involution():
    q = QuadraticSpace.diagonal(QQ, fracs(1, 1, -2))
    C = CliffordAlgebra(q)
    rev = C.reversal()
    xs = [C.basis_el(t) for t in range(C.dim)]
    for x in xs[:5]:
        for y in xs[3:]:
            assert rev(x * y) == rev(y) * rev(x)
    v = C.embed_vector(fracs(1, 2, 3))
    assert rev(v) == v
    w = C.embed_vector(fracs(0, 1, -1))
    assert rev(v * w) == w * v


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_even_part_dimension(n):
    q = QuadraticSpace.diagonal(QQ, fracs(*([1] * n)))
    C, C0, embed, project, tau = even_clifford(q)
    assert C.dim == 1 << n
    assert C0.dim == 1 << (n - 1)
    # embed and project are mutually inverse on the even part
    for t in range(C0.dim):
        x = C0.basis_el(t)
        assert project(embed(x)) == x


@pytest.mark.parametrize(
    "field,entries",
    [
        (QQ, (1, 1)),
        (QQ, (1, 1, 1)),
        (QQ, (2, -3, 5, 1)),
        (QQ, (1, 1, 1, 1, 1)),
        (QQ, (1, -1, 2, -2, 3, -3)),
        (F3, (1, 2)),
        (F3, (1, 1, 1)),
        (F3, (1, 1, 2, 2)),
        # C0 has dim 8 over its center Q(sqrt 2): no degree over Q
        (QQ, (1, 1, 1, 2)),
    ],
)
def test_canonical_type_table(field, entries):
    q = QuadraticSpace.diagonal(field, [field.from_int(v) if field.char else Fraction(v) for v in entries])
    _, C0, _, _, tau = even_clifford(q)
    assert involution_type(C0, tau) == canonical_involution_type(len(entries), field.char)


def test_canonical_type_char2_exception():
    # dimension 1 is orthogonal; every other odd-free char-2 case is not
    q1 = QuadraticSpace.diagonal(F2, [F2.one()])
    _, C01, _, _, tau1 = even_clifford(q1)
    assert involution_type(C01, tau1) == "orthogonal"
    q2 = QuadraticSpace.from_upper_entries(F2, 2, {(0, 1): 1})
    _, C02, _, _, tau2 = even_clifford(q2)
    assert involution_type(C02, tau2) == "unitary"


@pytest.mark.parametrize(
    "field,entries",
    [
        (QQ, (1, -1)),
        (QQ, (1, 1)),
        (QQ, (2, 5)),
        (QQ, (1, 1, 1, 1)),
        (QQ, (1, 2, -3, 5)),
        (F3, (1, 1)),
        (F3, (1, 1, 2, 1)),
    ],
)
def test_pair_clifford_matches_even_clifford(field, entries):
    q = QuadraticSpace.diagonal(field, [field.from_int(v) if field.char else Fraction(v) for v in entries])
    pair, aux = pair_from_form(q)
    data = clifford_of_pair(pair)
    assert data.C.dim == 1 << (len(entries) - 1)
    phi, C0, tau = split_compare(data, aux)
    assert phi.is_bijective()


@pytest.mark.parametrize(
    "entries,datum,split",
    [
        ({(0, 1): 1}, 0, True),
        ({(0, 0): 1, (0, 1): 1, (1, 1): 1}, 1, False),
    ],
)
def test_pair_clifford_char2_center(entries, datum, split):
    q = QuadraticSpace.from_upper_entries(F2, 2, entries)
    pair, aux = pair_from_form(q)
    data = clifford_of_pair(pair)
    et, _ = center_structure(data.C)
    assert et.datum == F2.from_int(datum)
    assert et.split is split
    split_compare(data, aux)


def _quaternion_tensor_pair(F, a1, b1, a2, b2):
    return pair_on_quaternion_tensor(QuaternionAlgebra(F, a1, b1), QuaternionAlgebra(F, a2, b2))


RULE_PAIRS = [
    ("Q-2", pair_from_form(QuadraticSpace.diagonal(QQ, fracs(1, -1)))[0]),
    ("Q-4", pair_from_form(QuadraticSpace.diagonal(QQ, fracs(1, 2, 3, 5)))[0]),
    ("GF3-2", pair_from_form(QuadraticSpace.diagonal(F3, [1, 1]))[0]),
    ("GF3-4", pair_from_form(QuadraticSpace.diagonal(F3, [1, 1, 1, 2]))[0]),
    ("GF2-2", pair_from_form(QuadraticSpace.from_upper_entries(F2, 2, {(0, 1): 1}))[0]),
    ("GF2-4", pair_from_form(QuadraticSpace.from_upper_entries(
        F2, 4, {(0, 0): 1, (0, 1): 1, (2, 3): 1}))[0]),
    ("tensor-Q", _quaternion_tensor_pair(QQ, *fracs(-1, -1, 2, 5))),
    ("tensor-GF3", _quaternion_tensor_pair(F3, 1, 1, 2, 2)),
    ("tensor-GF2", _quaternion_tensor_pair(F2, 1, 1, 1, 1)),
]


@pytest.mark.parametrize("label,pair", RULE_PAIRS, ids=[c[0] for c in RULE_PAIRS])
def test_pairs_saturate_once_at_the_degree_read_off_deg_a(label, pair, monkeypatch):
    # C0(V, q) with dim V = 2m needs words of m letters of A and no more
    degrees, saturate = [], _PairQuotient.saturate

    def recording_saturate(self, gens, degree):
        degrees.append(degree)
        return saturate(self, gens, degree)

    monkeypatch.setattr(_PairQuotient, "saturate", recording_saturate)
    deg = pair.A.deg
    data = clifford_of_pair(pair)
    assert data.C.dim == 1 << (deg - 1)
    assert degrees == [data.saturation_degree] == [max(3, deg // 2 + 1)]
    assert max(len(w) for w in data.canon_words) == deg // 2


def test_a_pair_missing_a_symmetric_row_does_not_certify():
    # without its first row, the unit, 1 is a free letter: 9 canonical words, not 8
    pair = _quaternion_tensor_pair(QQ, *fracs(-1, -1, 2, 5))
    assert pair.sym_rows[0] == pair.A.one().c
    broken = dataclasses.replace(pair, sym_rows=pair.sym_rows[1:], f_on_sym=pair.f_on_sym[1:])
    with pytest.raises(SaturationError, match="at degree 3"):
        clifford_of_pair(broken)


def test_quaternion_tensor_pair_corners():
    Q1 = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    Q2 = QuaternionAlgebra(QQ, Fraction(2), Fraction(5))
    pair = pair_on_quaternion_tensor(Q1, Q2)
    data = clifford_of_pair(pair)
    assert data.C.dim == 8
    et, e = center_structure(data.C)
    assert et.split and e is not None
    Cp = corner_algebra(data.C, e)
    Cm = corner_algebra(data.C, data.C.one() - e)
    got = [BrauerClass(QQ, [quaternion_symbol_of(Cp)]),
           BrauerClass(QQ, [quaternion_symbol_of(Cm)])]
    want = [BrauerClass(QQ, [(Fraction(-1), Fraction(-1))]),
            BrauerClass(QQ, [(Fraction(2), Fraction(5))])]
    assert (got[0] == want[0] and got[1] == want[1]) or \
           (got[0] == want[1] and got[1] == want[0])


def test_quaternion_tensor_pair_gf2():
    Q1 = QuaternionAlgebra(F2, 1, 1)
    Q2 = QuaternionAlgebra(F2, 1, 1)
    data = clifford_of_pair(pair_on_quaternion_tensor(Q1, Q2))
    assert data.C.dim == 8
    et, e = center_structure(data.C)
    assert et.split
    Cp = corner_algebra(data.C, e)
    assert Cp.dim == 4  # split quaternion over GF(2)


def test_embed_a_is_linear_not_multiplicative():
    q = QuadraticSpace.diagonal(QQ, fracs(1, 1))
    pair, _ = pair_from_form(q)
    data = clifford_of_pair(pair)
    A = pair.A
    x, y = A.basis_el(0), A.basis_el(3)
    assert data.embed_a(x + y) == data.embed_a(x) + data.embed_a(y)
    assert data.embed_a(2 * x) == 2 * data.embed_a(x)


@pytest.mark.parametrize("F", [QQ, F3, F2], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_even_part_embed_is_multiplicative(F, n):
    q = seeded_form(random.Random(n), F, n, gram=True)
    C, C0, embed, project, tau = even_clifford(q)
    assert isinstance(C0, EvenCliffordAlgebra)
    xs = [C0.basis_el(t) for t in range(C0.dim)]
    for x in xs:
        for y in xs:
            assert embed(x * y) == embed(x) * embed(y)


def ref_even_reversal_images(q):
    """The reversal of C(V, q) on the even basis masks, written out: each
    even basis element goes into C, is reversed there, and its coordinates
    are renumbered back onto the even masks."""
    C = CliffordAlgebra(q)
    masks = [m for m in range(C.dim) if bin(m).count("1") % 2 == 0]
    pos = {m: t for t, m in enumerate(masks)}
    rev = C.reversal()
    return [{pos[m]: v for m, v in rev.images[m].items()} for m in masks]


@pytest.mark.parametrize("F", [QQ, F3, F2], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("gram", [False, True], ids=["diag", "gram"])
def test_the_restricted_reversal_matches_the_written_out_one(F, n, gram):
    q = seeded_form(random.Random(n), F, n, gram)
    assert even_clifford(q)[4].images == ref_even_reversal_images(q)


def test_compose_reads_even_products_on_demand():
    # the eager table of C0 alone held 64 * 64 products of C
    q7 = QuadraticSpace.diagonal(F3, [1, 2, 1, 1, 2, 1, 1])
    wit = construct_composition(q7, {"kind": "first", "c": trivial_class(F3), "t": "orthogonal"})
    wit.verify()
    assert len(wit.source.C0.C._mul_cache) < 4096


def _integral_forms():
    rng = random.Random(2024)
    for n in range(1, 7):
        yield QuadraticSpace.diagonal(QQ, [QQ.from_int(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
                                           for _ in range(n)])
        while True:
            M = [[QQ.from_int(rng.randint(-3, 3)) if j >= i else QQ.zero() for j in range(n)]
                 for i in range(n)]
            q = QuadraticSpace(QQ, M)
            if q.is_usable():
                yield q
                break


@pytest.mark.parametrize("q", list(_integral_forms()), ids=lambda q: f"n{q.n}")
def test_integral_forms_keep_int_coefficients(q):
    # an integral form has integral products and reversal over Q, and an
    # integral rational is an int: no Fraction is left behind
    C, C0, _, _, tau = even_clifford(q)
    for i in range(C.dim):
        for j in range(C.dim):
            C.mul(C.basis_el(i), C.basis_el(j))
    coeffs = [v for prod in C._mul_cache.values() for v in prod.values()]
    coeffs += [v for im in tau.images for v in im.values()]
    assert coeffs and all(type(v) is int for v in coeffs)


# ---------------------------------------------------------------------------
# reference: the pair saturation as first written, one padding loop over
# every generator row, and generator rows pushed down term by term

def ref_pads(nu, length):
    pads, frontier = [()], [()]
    for _ in range(length):
        frontier = [w + (a,) for w in frontier for a in range(nu)]
        pads.extend(frontier)
    return pads


def ref_saturate(worker, gens, degree):
    ech = SparseEchelon(worker.F, key=lambda w: (-len(w), w))
    pads = ref_pads(worker.nu, max(0, degree - 2))
    for g in gens:
        gdeg = max((len(w) for w in g), default=0)
        for x in pads:
            for y in pads:
                if len(x) + gdeg + len(y) <= degree:
                    ech.insert({x + w + y: c for w, c in g.items()})
    return ech


def ref_generator_rows(worker, w_basis, ell):
    """The rows with each sandwich e_i l e_j formed per term, as
    generator_rows formed them before _w_space_paper took them over."""
    F, A, phi = worker.F, worker.A, worker.letter_decomp
    left = [A.mul(A.basis_el(i), ell) for i in range(A.dim)]
    out = []
    for u in w_basis:
        row, sand = {}, {}
        for (i, j), c in u.items():
            axpy(F, row, c, worker._word_product(phi[i], phi[j]))
            axpy(F, sand, c, A.mul(left[i], A.basis_el(j)).c)
        axpy(F, row, F.neg(F.one()), apply_cols(F, phi, sand))
        if row:
            out.append(row)
    return out


def _gram(F, rows):
    return QuadraticSpace(F, [[F.from_int(v) for v in row] for row in rows])


PAIR_CORPUS = {
    "Q-diag-2": lambda: pair_from_form(QuadraticSpace.diagonal(QQ, [1, -3]))[0],
    "Q-gram-2": lambda: pair_from_form(_gram(QQ, [[1, 1], [0, 2]]))[0],
    "Q-diag-4": lambda: pair_from_form(QuadraticSpace.diagonal(QQ, [1, 2, -3, 5]))[0],
    "Q-gram-4": lambda: pair_from_form(
        _gram(QQ, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]))[0],
    "GF3-diag-2": lambda: pair_from_form(QuadraticSpace.diagonal(F3, [1, 1]))[0],
    "GF3-gram-2": lambda: pair_from_form(_gram(F3, [[1, 1], [0, 2]]))[0],
    "GF3-diag-4": lambda: pair_from_form(QuadraticSpace.diagonal(F3, [1, 1, 2, 1]))[0],
    "GF3-gram-4": lambda: pair_from_form(
        _gram(F3, [[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, 1, 1], [0, 0, 0, 2]]))[0],
    "GF2-gram-2": lambda: pair_from_form(_gram(F2, [[1, 1], [0, 1]]))[0],
    "GF2-gram-4": lambda: pair_from_form(
        _gram(F2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]]))[0],
    "Q-tensor": lambda: pair_on_quaternion_tensor(QuaternionAlgebra(QQ, -1, -1),
                                                  QuaternionAlgebra(QQ, 2, 5)),
    "GF3-tensor": lambda: pair_on_quaternion_tensor(QuaternionAlgebra(F3, 1, 1),
                                                    QuaternionAlgebra(F3, 2, 2)),
    "GF2-tensor": lambda: pair_on_quaternion_tensor(QuaternionAlgebra(F2, 1, 1),
                                                    QuaternionAlgebra(F2, 1, 1)),
}


@functools.lru_cache(maxsize=None)
def corpus_pair(name):
    return PAIR_CORPUS[name]()


@functools.lru_cache(maxsize=None)
def pair_worker(name):
    """The quotient worker of a corpus pair, its sandwich basis and its
    generator rows."""
    pair = corpus_pair(name)
    worker = _PairQuotient(pair.A, pair.sigma, pair.sym_rows, pair.f_on_sym)
    w_basis, ell_sandwiches = _w_space_paper(pair.A, pair.sigma, pair.ell)
    return worker, w_basis, worker.generator_rows(w_basis, ell_sandwiches)


@pytest.mark.parametrize("name", PAIR_CORPUS)
def test_generator_rows_match_the_per_term_reference(name):
    worker, w_basis, gens = pair_worker(name)
    assert gens == ref_generator_rows(worker, w_basis, corpus_pair(name).ell)


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("name", PAIR_CORPUS)
def test_saturation_matches_the_list_padding_reference(name, degree):
    worker, _, gens = pair_worker(name)
    assert worker.saturate(gens, degree).rows == ref_saturate(worker, gens, degree).rows


def test_saturation_pads_each_degree_bucket_with_its_own_allowance():
    # two degree-2 rows with equal top words: their difference (0) - (1)
    # has degree 1, so padding one basis of all rows, each row by its own
    # degree, would put length-3 words such as (0, 0, 0) - (0, 1, 0) into
    # the degree-3 ideal, which no padding of the rows themselves reaches
    worker, _, _ = pair_worker("Q-tensor")
    gens = [{(0, 0): 1, (0,): 1}, {(0, 0): 1, (1,): 1}]
    single = SparseEchelon(QQ, key=lambda w: (-len(w), w))
    pads = ref_pads(worker.nu, 1)
    for g in rref(QQ, gens).rows.values():
        gdeg = max(len(w) for w in g)
        for x in pads:
            for y in pads:
                if len(x) + gdeg + len(y) <= 3:
                    single.insert({x + w + y: c for w, c in g.items()})
    ref = ref_saturate(worker, gens, 3)
    assert single.rank > ref.rank
    assert not ref.contains({(0, 0, 0): 1, (0, 1, 0): -1})
    assert worker.saturate(gens, 3).rows == ref.rows


def test_pair_saturation_script_exits_zero_with_every_form_certified():
    script = Path(__file__).resolve().parent.parent / "scripts" / "pair_saturation.py"
    p = subprocess.run([sys.executable, str(script), "--json"], capture_output=True,
                       text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    rows = [json.loads(line) for line in p.stdout.splitlines()]
    assert len(rows) == 16 and all(r["outcome"] == "certified" for r in rows)
