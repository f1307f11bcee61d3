"""Generator certificates against the all-pairs reference.

The reference checks below are the basis-pair and basis-triple checks the
certificates made before they ran over generators x basis, including the
random sampling they fell back to above a size limit, the basis-wide
sigma^2 = id and intertwining checks, and the corner's old unit check over
its whole basis.  They stay here as the reference: on a fixed corpus of
the involutions, homomorphisms and corners that compose builds, and of
corrupted copies of each, the generator certificate must reach the same
verdict as the reference.

The tamper tests at the end change one field of a composed witness each
and check that CompositionWitness.verify names the check that fails.
"""

import dataclasses
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cliffcomp.algebra import (
    Algebra,
    AlgebraHom,
    CornerAlgebra,
    FieldAlgebra,
    Involution,
    MatrixAlgebra,
    OppositeAlgebra,
    ProductAlgebra,
    QuaternionAlgebra,
    TensorAlgebra,
    alg_inverse,
    center_structure,
    corner_algebra,
    twist_involution,
)
from cliffcomp.brauer import trivial_class
from cliffcomp.cli import _parse_field, _parse_object, _parse_request
from cliffcomp.clifford import CliffordAlgebra, even_clifford
from cliffcomp.compose import construct_composition, source_from_form
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


def reference_respects(phi, sA, sB):
    """The intertwining phi . sA = sB . phi on every basis element."""
    for i in range(phi.A.dim):
        x = phi.A.basis_el(i)
        if phi.apply(sA.apply(x)) != sB.apply(phi.apply(x)):
            raise CertificationError(f"intertwining fails on basis {i}")


def reference_corner_verify(A, e):
    """The corner's old unit certificate: the unit of CornerAlgebra(A, e)
    against every basis element of the corner, on both sides."""
    C = CornerAlgebra(A, e)
    one = C.one()
    for i in range(C.dim):
        b = C.basis_el(i)
        if C.mul(one, b) != b or C.mul(b, one) != b:
            raise CertificationError(f"unit fails on basis {i}")


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
    _, obj = _parse_object(F, json.dumps(problem["object"]))
    return construct_composition(obj, _parse_request(F, Args))


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


def _order_breaking(sigma):
    """Int(u) . sigma for the first u = 1 + e_k that is invertible and
    makes it fail sigma^2 = id: an anti-automorphism that is not an
    involution, which only the order check rejects."""
    A = sigma.A
    for k in range(1, A.dim):
        u = A.one() + A.basis_el(k)
        u_inv = alg_inverse(A, u)
        if u_inv is None:
            continue
        out = twist_involution(sigma, u, u_inv, label="order-breaking")
        if any(out.apply(out.apply(A.basis_el(i))) != A.basis_el(i) for i in range(A.dim)):
            return out
    raise AssertionError("no order-breaking twist")


@pytest.mark.parametrize("name,sigma", INVOLUTIONS, ids=[c[0] for c in INVOLUTIONS])
def test_involution_certificate_matches_all_pairs(name, sigma):
    for how, imgs in _corruptions(sigma.A.F, sigma.images):
        copy = Involution(sigma.A, imgs, label=f"{name} {how}")
        expect = verdict(reference_involution_verify, copy)
        assert verdict(copy.verify) == expect, how
        assert expect == (how == "intact"), how


@pytest.mark.parametrize("name,sigma", INVOLUTIONS, ids=[c[0] for c in INVOLUTIONS])
def test_order_check_on_generators_matches_the_basis(name, sigma):
    # an anti-automorphism of order > 2 passes every product check, so the
    # order check on generators alone must reject it, as the basis one does
    twisted = _order_breaking(sigma)
    assert not verdict(reference_involution_verify, twisted)
    with pytest.raises(CertificationError, match="not an involution on generator"):
        twisted.verify()


@pytest.mark.parametrize("name,wit", CORPUS, ids=[c[0] for c in CORPUS])
def test_intertwining_on_generators_matches_the_basis(name, wit):
    # with alpha and sigma certified, a target involution that passes its
    # certificate intertwines on the generators exactly when it does on the
    # basis: tau, its corrupted copies, the twist Int(e_1) tau (which
    # bundle_diag's homomorphism does not intertwine, and others may), and
    # a twist that is not an involution
    alpha, sigma, tau = wit.alpha, wit.source.sigma, wit.tau
    copies = [(how, Involution(tau.A, imgs)) for how, imgs in _corruptions(tau.A.F, tau.images)]
    copies += [("non-intertwining", _non_intertwining(wit)), ("order-breaking", _order_breaking(tau))]
    for how, copy in copies:
        certified = verdict(copy.verify)
        expect = certified and verdict(reference_respects, alpha, sigma, copy)
        assert (certified and alpha.respects(sigma, copy)) == expect, how
        assert expect == (how == "intact") or how == "non-intertwining", how


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
    assert checks["involution"] == {"generators": gt, "checks": 1 + gt * m + gt}
    assert checks["intertwines"] == {"checks": g}


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
# corners: a corner is certified by its idempotent (e e = e, and e commutes
# with every generator), against the old unit check over the corner's basis

GRAM6_GF3 = [[0, 1, 2, 2, 1, 1], [0, 1, 1, 1, 1, 1], [0, 0, 2, 2, 2, 2],
             [0, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 2]]


def _form(field, obj):
    F = _parse_field(field)
    return _parse_object(F, json.dumps(obj))[1]


def _hyperbolic_idempotent(C0):
    """x y in C0 for a hyperbolic pair x, y (q(x) = q(y) = 0, b(x, y) = 1)
    with entries in {-1, 0, 1} (all of GF(3)), or None: (x y)^2 = b(x, y) x y
    - q(x) q(y) = x y, an idempotent that is not central for n > 2."""
    C, q = C0.C, C0.C.q
    F = q.F
    vectors = [[F.from_int(t) for t in v] for v in itertools.product((0, 1, -1), repeat=q.n)]
    isotropic = [v for v in vectors[1:] if F.is_zero(q.q(v))]
    for x, y in itertools.product(isotropic, repeat=2):
        b = q.bq(x, y)
        if not F.is_zero(b):
            y = [F.div(t, b) for t in y]
            return C0.project(C.embed_vector(x) * C.embed_vector(y))
    return None


def _split_sources():
    """(name, C0, central idempotent e) for split-center sources: forms over
    Q, GF(3) and GF(2) (Gram) and the committed quaternion pair."""
    out = []
    forms = [("Q-diag", dict(CORPUS)["bundle_diag"].source.C0),
             ("Q-hyperbolic", even_clifford(_form("Q", {"diag": [1, -1, 1, -1]}))[1]),
             ("GF3-gram6", even_clifford(_form("GF(3)", {"gram": GRAM6_GF3}))[1]),
             ("GF2-gram", even_clifford(_form("GF(2)", {"gram": [[0, 1, 0, 0], [0, 0, 0, 0],
                                                                   [0, 0, 0, 1], [0, 0, 0, 0]]}))[1]),
             ("quaternion-pair", dict(CORPUS)["bundle_quaternion_pair"].source.C0)]
    for name, C0 in forms:
        _, e = center_structure(C0)
        out.append((name, C0, e))
    return out


SPLIT_SOURCES = _split_sources()


def _corner_idempotents(A, e):
    """e and 1 - e, then tampered ones: 2 e outside characteristic 2, e plus
    the first generator, and a non-central idempotent of a form source."""
    yield "e", e
    yield "1 - e", A.one() - e
    if A.F.char != 2:
        yield "2 e", 2 * e
    yield "e + generator", e + A.basis_el(A.generators()[0])
    if hasattr(A, "C"):
        p = _hyperbolic_idempotent(A)
        if p is not None:
            assert p * p == p
            yield "non-central idempotent", p


@pytest.mark.parametrize("name,A,e", SPLIT_SOURCES, ids=[c[0] for c in SPLIT_SOURCES])
def test_corner_certificate_matches_the_unit_check(name, A, e):
    assert e is not None
    hows = []
    for how, idem in _corner_idempotents(A, e):
        hows.append(how)
        expect = verdict(reference_corner_verify, A, idem)
        assert verdict(corner_algebra, A, idem) == expect, how
        assert expect == (how in ("e", "1 - e")), how
    # <1,1,1,1> over Q is anisotropic and the pair has no form
    assert ("non-central idempotent" in hows) == (name in ("Q-hyperbolic", "GF3-gram6", "GF2-gram"))


def test_corner_refuses_a_non_idempotent():
    _, A, e = SPLIT_SOURCES[0]
    with pytest.raises(CertificationError, match="e is not an idempotent"):
        corner_algebra(A, 2 * e)


def test_corner_refuses_a_non_central_idempotent():
    # (e1 e2)^2 = 1 in C0 of <1, -1, 1, -1>, and e1 e2 anticommutes with
    # e1 e3, so (1 + e1 e2)/2 is an idempotent that is not central
    C, C0, _, project, _ = even_clifford(_form("Q", {"diag": [1, -1, 1, -1]}))
    e1, e2, e3 = (C.embed_vector([Fraction(int(i == k)) for i in range(4)]) for k in range(3))
    w, v = project(e1 * e2), project(e1 * e3)
    assert w * w == C0.one() and w * v == -(v * w)
    p = (C0.one() + w) * Fraction(1, 2)
    assert p * p == p
    assert not verdict(reference_corner_verify, C0, p)
    with pytest.raises(CertificationError, match="e does not commute with generator"):
        corner_algebra(C0, p)


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


def test_prepared_source_with_a_non_involution_is_refused():
    # the intertwining check on generators assumes sigma is certified; a
    # prepared SourceData has passed no builder, so its sigma is certified
    # on entry, and an anti-automorphism of order > 2 is refused there
    wit = dict(CORPUS)["bundle_diag"]
    src = source_from_form(wit.source.q)
    assert construct_composition(src, wit.request).degree == wit.degree
    bad = dataclasses.replace(src, sigma=_order_breaking(src.sigma))
    with pytest.raises(CertificationError, match="order-breaking: not an involution on generator"):
        construct_composition(bad, wit.request)
