"""Generator certificates against the all-pairs reference.

The reference checks below are the basis-pair and basis-triple checks the
certificates made before they ran over generators x basis, including the
random sampling they fell back to above a size limit.  They stay here as
the reference: on a fixed corpus of the involutions and homomorphisms
that compose builds, and of corrupted copies of each, the generator
certificate must reach the same verdict as the all-pairs check.

The tamper tests at the end change one field of a composed witness each
and check that CompositionWitness.verify names the check that fails.
"""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cliffcomp.algebra import (
    Algebra,
    AlgebraHom,
    FieldAlgebra,
    Involution,
    MatrixAlgebra,
    OppositeAlgebra,
    ProductAlgebra,
    QuaternionAlgebra,
    TensorAlgebra,
    alg_inverse,
)
from cliffcomp.brauer import trivial_class
from cliffcomp.cli import _parse_field, _parse_object, _parse_request
from cliffcomp.clifford import CliffordAlgebra, even_clifford
from cliffcomp.compose import construct_composition
from cliffcomp.errors import CertificationError
from cliffcomp.linalg import rref
from cliffcomp.quadform import QuadraticSpace
from cliffcomp.scalars import QQ, PrimeField

F2, F3 = PrimeField(2), PrimeField(3)
BUNDLES = sorted((Path(__file__).parent / "data").glob("bundle_*.json"))


# ---------------------------------------------------------------------------
# the reference: every basis pair (or a seeded sample of pairs)

def _pairs(n, mode, rng_seed, samples):
    if mode == "full":
        return ((i, j) for i in range(n) for j in range(n))
    rng = random.Random(rng_seed)
    return ((rng.randrange(n), rng.randrange(n)) for _ in range(samples))


def reference_involution_verify(sigma, mode="full", rng_seed=0, samples=400):
    A = sigma.A
    n = A.dim
    one = A.one()
    if sigma.apply(one) != one:
        raise CertificationError("does not fix the unit")
    for i in range(n):
        b = A.basis_el(i)
        if sigma.apply(sigma.apply(b)) != b:
            raise CertificationError(f"not an involution on basis {i}")
    for i, j in _pairs(n, mode, rng_seed, samples):
        x, y = A.basis_el(i), A.basis_el(j)
        if sigma.apply(A.mul(x, y)) != A.mul(sigma.apply(y), sigma.apply(x)):
            raise CertificationError(f"anti-multiplicativity fails at ({i},{j})")


def reference_hom_verify(phi, mode="full", rng_seed=0, samples=400):
    A, B = phi.A, phi.B
    if phi.apply(A.one()) != B.one():
        raise CertificationError("unit not preserved")
    for i, j in _pairs(A.dim, mode, rng_seed, samples):
        x, y = A.basis_el(i), A.basis_el(j)
        if phi.apply(A.mul(x, y)) != B.mul(phi.apply(x), phi.apply(y)):
            raise CertificationError(f"multiplicativity fails at ({i},{j})")


def reference_verify_associative(A, mode="full", rng_seed=0, samples=300):
    n = A.dim
    if mode == "full":
        triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
    else:
        rng = random.Random(rng_seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(samples))
    for i, j, k in triples:
        a, b, c = A.basis_el(i), A.basis_el(j), A.basis_el(k)
        if A.mul(A.mul(a, b), c) != A.mul(a, A.mul(b, c)):
            raise CertificationError(f"associativity fails at ({i},{j},{k})")


def verdict(check, *args) -> bool:
    try:
        check(*args)
    except CertificationError:
        return False
    return True


# ---------------------------------------------------------------------------
# the corpus

def _witness_from_bundle(path):
    problem = json.loads(path.read_text())["problem"]

    class Args:
        type = problem["type"]
        cls = json.dumps(problem["class"]) if problem.get("class") is not None else None
        s = json.dumps(problem["s"]) if problem.get("s") is not None else None

    F = _parse_field(problem.get("field"))
    _, obj = _parse_object(F, json.dumps(problem["object"]), problem.get("truncation_cap", 4))
    return construct_composition(obj, _parse_request(F, Args), seed=problem.get("seed", 0))


def _corpus():
    """(name, witness) for the four committed bundles and a first-kind
    witness on C0 of a 7-variable form over GF(3), of dimension 64."""
    out = [(path.stem, _witness_from_bundle(path)) for path in BUNDLES]
    q7 = QuadraticSpace.diagonal(F3, [1, 2, 1, 1, 2, 1, 1])
    out.append(("gf3-n7", construct_composition(
        q7, {"kind": "first", "c": trivial_class(F3), "t": "orthogonal"})))
    return out


CORPUS = _corpus()


def _bump(F, coords):
    """Add 1 to the first entry of a sparse vector, in place."""
    k = min(coords, default=0)
    v = F.add(coords.get(k, F.zero()), F.one())
    if F.is_zero(v):
        coords.pop(k)
    else:
        coords[k] = v


def _changed(F, images, i):
    """A copy of images with one entry of image i changed."""
    out = [dict(im) for im in images]
    _bump(F, out[i])
    return out


def _corruptions(F, images):
    """The images themselves, then copies with one entry changed (in every
    image up to dim 16, in the last one beyond) and with two images
    swapped."""
    n = len(images)
    yield "intact", images
    for i in range(n) if n <= 16 else [n - 1]:
        yield f"entry {i}", _changed(F, images, i)
    j = next(t for t in range(n - 2, -1, -1) if images[t] != images[n - 1])
    swapped = [dict(im) for im in images]
    swapped[n - 1], swapped[j] = swapped[j], swapped[n - 1]
    yield "swap", swapped


INVOLUTIONS = [(f"{name}-{which}", sigma) for name, wit in CORPUS
               for which, sigma in (("source", wit.source.sigma), ("target", wit.tau))]


@pytest.mark.parametrize("name,sigma", INVOLUTIONS, ids=[c[0] for c in INVOLUTIONS])
def test_involution_certificate_matches_all_pairs(name, sigma):
    for how, imgs in _corruptions(sigma.A.F, sigma.images):
        copy = Involution(sigma.A, imgs, label=f"{name} {how}")
        expect = verdict(reference_involution_verify, copy)
        assert verdict(copy.verify) == expect, how
        assert expect == (how == "intact"), how


@pytest.mark.parametrize("name,wit", CORPUS, ids=[c[0] for c in CORPUS])
def test_hom_certificate_matches_all_pairs(name, wit):
    phi = wit.alpha
    for how, imgs in _corruptions(phi.B.F, phi.images):
        copy = AlgebraHom(phi.A, phi.B, imgs, label=f"{name} {how}")
        expect = verdict(reference_hom_verify, copy)
        assert verdict(copy.verify) == expect, how
        assert expect == (how == "intact"), how


def test_corpus_reaches_the_old_sampling_sizes():
    # the old checks sampled involutions above dim 32 and homomorphisms
    # above dim 40; the corpus holds both, and every corrupted copy of
    # them is rejected above by the generator certificate
    assert max(sigma.A.dim for _, sigma in INVOLUTIONS) > 32
    assert max(wit.alpha.A.dim for _, wit in CORPUS) > 40


# ---------------------------------------------------------------------------
# associativity

class _UncheckedTable(Algebra):
    """A structure table taken as given, so that a changed table reaches
    the certificate under test instead of the check at entry."""

    def __init__(self, F, dim, table, unit, label="A"):
        super().__init__()
        self.F, self.dim, self._table, self._unit, self.label = F, dim, table, unit, label

    def mul_bb(self, i, j):
        return self._table.get((i, j), {})


def _dented_table(A, i, j):
    """A's structure table with one entry of e_i e_j changed."""
    table = {(a, b): dict(A._mul_bb_cached(a, b)) for a in range(A.dim) for b in range(A.dim)}
    _bump(A.F, table[(i, j)])
    return table


def _tables():
    Q = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    Q2 = QuaternionAlgebra(F2, 1, 1)
    gram5 = [[1, 1, 0, 0, 0], [0, 2, 1, 0, 0], [0, 0, -1, 0, 1], [0, 0, 0, 3, 0], [0, 0, 0, 0, 5]]
    _, C0, _, _, _ = even_clifford(QuadraticSpace(QQ, [[Fraction(v) for v in row] for row in gram5]))
    pair_C = dict(CORPUS)["bundle_quaternion_pair"].source.C0
    return [("quaternion-Q", Q), ("quaternion-GF2", Q2), ("C0-gram5", C0), ("pair-clifford", pair_C)]


TABLES = _tables()


@pytest.mark.parametrize("name,A", TABLES, ids=[c[0] for c in TABLES])
def test_associativity_certificate_matches_all_triples(name, A):
    # the table itself, then copies with one product changed away from the
    # unit (basis index 0): every product up to dim 8, the last one beyond
    n = A.dim
    dents = [(i, j) for i in range(1, n) for j in range(1, n)] if n <= 8 else [(n - 1, n - 2)]
    copies = [("intact", {(i, j): A._mul_bb_cached(i, j) for i in range(n) for j in range(n)})]
    copies += [(f"dent {i},{j}", _dented_table(A, i, j)) for i, j in dents]
    for how, table in copies:
        B = _UncheckedTable(A.F, n, table, dict(A._unit), label=f"{name} {how}")
        expect = verdict(reference_verify_associative, B)
        assert verdict(B.verify_associative) == expect, how
        assert expect == (how == "intact"), how


# ---------------------------------------------------------------------------
# generating sets

def _algebras():
    Q = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    Q3 = QuaternionAlgebra(F3, 1, 1)
    C = CliffordAlgebra(QuadraticSpace.diagonal(F3, [1, 2, 1]))
    C0 = dict(CORPUS)["gf3-n7"].source.C0
    return [
        ("even-clifford", C0),
        ("field", FieldAlgebra(QQ)),
        ("quaternion", Q),
        ("matrix", MatrixAlgebra(Q3, 2)),
        ("tensor", TensorAlgebra(Q, QuaternionAlgebra(QQ, Fraction(2), Fraction(5)))),
        ("opposite", OppositeAlgebra(Q)),
        ("product", ProductAlgebra(Q, OppositeAlgebra(Q))),
        ("clifford", C),
        ("pair-clifford", dict(CORPUS)["bundle_quaternion_pair"].source.C0),
    ]


ALGEBRAS = _algebras()


@pytest.mark.parametrize("name,A", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_generator_words_span(name, A):
    gens = A.generators()
    assert A.generators() is gens
    assert all(0 <= g < A.dim for g in gens)
    # close the span of 1 under right multiplication by the generators,
    # breadth first, with a rank test for each new word
    span, frontier = [A.one()], [A.one()]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                y = w * A.basis_el(g)
                if rref(A.F, [v.c for v in span + [y]]).rank > len(span):
                    span.append(y)
                    new.append(y)
        frontier = new
    assert len(span) == A.dim


def test_witness_verify_reports_check_counts():
    wit = dict(CORPUS)["gf3-n7"]
    checks = wit.verify()
    g = len(wit.source.C0.generators())
    n = wit.source.C0.dim
    assert checks["algebra_hom"] == {"generators": g, "checks": 1 + g * n}
    gt, m = len(wit.target.generators()), wit.target.dim
    assert checks["involution"] == {"generators": gt, "checks": 1 + m + gt * m}
    assert checks["intertwines"] == {"checks": n}


def test_sampled_check_misses_a_defect_the_certificate_finds():
    # above dim 16 the old associativity check tried 300 seeded triples; a
    # table of dim 64 with one product entry changed passes it, and the
    # generator certificate names a triple that really fails
    C0 = dict(CORPUS)["gf3-n7"].source.C0
    n = C0.dim
    for i in range(n - 1, 0, -1):
        A = _UncheckedTable(F3, n, _dented_table(C0, i, i - 1), dict(C0._unit))
        if verdict(reference_verify_associative, A, "sample"):
            break
    else:
        pytest.fail("every dented table is caught by the sample")
    with pytest.raises(CertificationError, match=r"associativity fails at") as err:
        A.verify_associative()
    g, j, k = (int(t) for t in str(err.value).split("(")[1].rstrip(")").split(","))
    x, y, z = A.basis_el(g), A.basis_el(j), A.basis_el(k)
    assert (x * y) * z != x * (y * z)



# ---------------------------------------------------------------------------
# tampered witnesses: one field changed, and verify() names the failed check.
# The injectivity check in degree 2 mod 4 is not reached by one changed
# field: there sigma swaps the two factors of a split center (or the
# center is a field and C0 is simple), so the kernel of a homomorphism
# that passes the intertwining check is a sigma-stable ideal, hence 0.

def _non_intertwining(wit):
    """Int(u) tau for the basis element u = e_1 of the target: a certified
    involution that the homomorphism does not intertwine with sigma."""
    B, tau = wit.target, wit.tau
    u = B.basis_el(1)
    u_inv = alg_inverse(B, u)
    out = Involution(B, [(u * tau.apply(B.basis_el(t)) * u_inv).c for t in range(B.dim)])
    out.verify()
    return out


TAMPERS = {
    "intertwining": ("bundle_diag", lambda w: {"tau": _non_intertwining(w)},
                     "homomorphism does not intertwine the involutions"),
    "stored-type": ("bundle_diag", lambda w: {"tau_type": "orthogonal"},
                    "involution type changed: symplectic"),
    "wanted-type": ("bundle_diag", lambda w: {"request": dict(w.request, t="orthogonal")},
                    "wanted type orthogonal, got symplectic"),
    "stale-degree": ("bundle_diag", lambda w: {"degree": 4}, "stored degree is stale"),
    "exact-formula": ("bundle_diag",
                      lambda w: {"expected": dataclasses.replace(w.expected, log2=2)},
                      "degree 2 does not match the exact formula value 4"),
    "multiple-of-formula": ("bundle_unitary",
                            lambda w: {"expected": dataclasses.replace(w.expected, log2=3)},
                            "degree 4 is not a multiple of 8"),
    # degree 2 fits the classes (-1,-1) of the request, not the trivial class
    "admissibility": ("bundle_diag",
                      lambda w: {"request": dict(w.request, c=trivial_class(QQ))},
                      "witness degree fails the admissibility form"),
}


@pytest.mark.parametrize("check", TAMPERS)
def test_witness_verify_catches_one_tampered_field(check):
    name, change, message = TAMPERS[check]
    wit = dict(CORPUS)[name]
    wit.verify()
    with pytest.raises(CertificationError, match=message):
        dataclasses.replace(wit, **change(wit)).verify()
