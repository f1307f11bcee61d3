"""Witness construction: certified homomorphisms at the formula degree."""

from fractions import Fraction

import pytest

from cliffcomp import compose
from cliffcomp.algebra import Involution, QuaternionAlgebra, involution_type
from cliffcomp.brauer import BrauerClass, trivial_class
from cliffcomp.clifford import clifford_of_pair
from cliffcomp.compose import construct_composition, regular_representation
from cliffcomp.errors import CertificationError, NotCoveredError
from cliffcomp.mcd import dbound_min_degree
from cliffcomp.qpair import pair_on_quaternion_tensor
from cliffcomp.quadform import QuadraticSpace
from cliffcomp.scalars import QQ, EtaleQuadratic, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)
HH = BrauerClass(QQ, [(Fraction(-1), Fraction(-1))])
TRIV = trivial_class(QQ)
S_I = EtaleQuadratic(QQ, Fraction(-1), False)
S_SQRT2 = EtaleQuadratic(QQ, Fraction(2), False)
S_SPLIT = EtaleQuadratic(QQ, Fraction(1), True)


def diag(*entries):
    return QuadraticSpace.diagonal(QQ, [Fraction(e) for e in entries])


FIRST_KIND_CASES = [
    ("n3-hh-symp", (1, 1, 1), HH, "symplectic", 2),
    ("n3-hh-orth", (1, 1, 1), HH, "orthogonal", 4),
    ("n3-triv-symp", (1, 1, 1), TRIV, "symplectic", 4),
    ("n5-hh-symp", (1, 1, 1, -1, 1), HH, "symplectic", 4),
    ("n5-hh-orth", (1, 1, 1, -1, 1), HH, "orthogonal", 8),
    ("n5-far-symp", (1, 1, -1, 1, -1), HH, "symplectic", 8),
    ("n4-hh-symp", (1, 1, 1, 1), HH, "symplectic", 2),
    ("n4-triv-symp", (1, 1, 1, 1), TRIV, "symplectic", 4),
    ("n6-field-center-orth", (1, 1, 1, 1, 1, 1), TRIV, "orthogonal", 8),
    ("n6-split-center-orth", (1, -1, 1, -1, 1, -1), TRIV, "orthogonal", 8),
]


@pytest.mark.parametrize("label,entries,c,t,deg",
                         FIRST_KIND_CASES, ids=[c[0] for c in FIRST_KIND_CASES])
def test_first_kind_witness_degrees(label, entries, c, t, deg):
    wit = construct_composition(diag(*entries), {"kind": "first", "c": c, "t": t})
    assert wit.degree == deg
    checks = wit.verify()
    assert checks["algebra_hom"] and checks["intertwines"]
    assert wit.tau_type == t


UNITARY_CASES = [
    ("n3-qi", (1, 1, 1), S_I, 2),
    ("n3-qsqrt2", (1, 1, 1), S_SQRT2, 4),
    ("n3-split", (1, 1, 1), S_SPLIT, 4),
    ("n6-center-matches", (1, 1, 1, 1, 1, 1), S_I, 4),
    ("n6-split-center-split-s", (1, -1, 1, -1, 1, -1), S_SPLIT, 4),
]


@pytest.mark.parametrize("label,entries,S,deg",
                         UNITARY_CASES, ids=[c[0] for c in UNITARY_CASES])
def test_unitary_witness_degrees(label, entries, S, deg):
    wit = construct_composition(diag(*entries),
                                {"kind": "unitary", "S": S, "c0": TRIV})
    assert wit.degree == deg
    assert wit.tau_type == "unitary"
    wit.verify()


def test_finite_field_witnesses():
    q3 = QuadraticSpace.diagonal(F3, [1, 1, 1])
    wit = construct_composition(
        q3, {"kind": "first", "c": trivial_class(F3), "t": "symplectic"})
    assert wit.degree == 2
    wit.verify()
    q2 = QuadraticSpace(F2, [[1, 1], [0, 1]])
    wit2 = construct_composition(
        q2, {"kind": "unitary", "S": EtaleQuadratic(F2, 1, False),
             "c0": trivial_class(F2)})
    assert wit2.degree == 1
    wit2.verify()


def test_pair_source_witness():
    Q1 = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    Q2 = QuaternionAlgebra(QQ, Fraction(2), Fraction(5))
    data = clifford_of_pair(pair_on_quaternion_tensor(Q1, Q2))
    wit = construct_composition(data, {"kind": "first", "c": TRIV, "t": "symplectic"})
    assert wit.degree == 4
    wit.verify()


def test_injectivity_forced_in_degree_2_mod_4():
    q6 = diag(1, -1, 1, -1, 1, -1)
    wit = construct_composition(q6, {"kind": "first", "c": TRIV, "t": "orthogonal"})
    assert wit.alpha.is_injective()
    # by contrast a degree-0-mod-4 witness may collapse one corner
    q4 = diag(1, 1, 1, 1)
    wit4 = construct_composition(q4, {"kind": "first", "c": HH, "t": "symplectic"})
    assert not wit4.alpha.is_injective()


def test_witness_intertwines_involutions_pointwise():
    wit = construct_composition(diag(1, 1, 1, 1), {"kind": "first", "c": HH,
                                                   "t": "symplectic"})
    C0, sigma = wit.source.C0, wit.source.sigma
    for i in range(C0.dim):
        x = C0.basis_el(i)
        assert wit.alpha.apply(sigma.apply(x)) == wit.tau.apply(wit.alpha.apply(x))


def test_witness_json_deterministic_given_seed():
    req = {"kind": "first", "c": HH, "t": "symplectic"}
    a = construct_composition(diag(1, 1, 1, -1, 1), req, seed=9).to_json()
    b = construct_composition(diag(1, 1, 1, -1, 1), req, seed=9).to_json()
    assert a == b
    assert a["degree"] == 4 and a["log2_degree"] == 2
    assert a["kind"] == "first" and a["involution_type"] == "symplectic"
    assert len(a["hom_images"]) == 16


def test_unitary_target_center_is_etale_quadratic():
    wit = construct_composition(diag(1, 1, 1), {"kind": "unitary", "S": S_I,
                                                "c0": TRIV})
    assert involution_type(wit.target, wit.tau) == "unitary"
    assert wit.target.dim == 2 * wit.degree ** 2


def test_regular_representation_realizes_distance_bound():
    assert dbound_min_degree(2, HH, TRIV) == 4
    H = QuaternionAlgebra(QQ, Fraction(-1), Fraction(-1))
    rep = regular_representation(H)
    assert rep.B.deg == 4
    rep.verify()
    assert rep.is_injective()


@pytest.mark.parametrize(
    "entries,request_builder",
    [
        # split center with a field S stays outside the covered cases
        ((1, -1, 1, -1, 1, -1),
         lambda: {"kind": "unitary", "S": S_SQRT2, "c0": TRIV}),
        ((1, -1),
         lambda: {"kind": "unitary", "S": S_I, "c0": TRIV}),
    ],
)
def test_uncovered_configurations_refused(entries, request_builder):
    with pytest.raises(NotCoveredError):
        construct_composition(diag(*entries), request_builder())


# (source, request, label of the target involution): a swap target, an
# extension candidate after a quaternion twist, one after a 2x2 doubling
# layer, and the restriction of the source involution to a split corner
CERTIFY_ONCE_CASES = [
    ("swap", diag(1, 1, 1), {"kind": "unitary", "S": S_SPLIT, "c0": TRIV}, "swap"),
    ("extended", diag(1, 1, 1), {"kind": "first", "c": TRIV, "t": "symplectic"}, "tau"),
    ("doubled", diag(1, 1, 1), {"kind": "first", "c": HH, "t": "orthogonal"}, "tau"),
    ("corner", diag(1, -1, 1, -1), {"kind": "first", "c": TRIV, "t": "symplectic"}, "sigma^"),
]


@pytest.mark.parametrize("label,q,req,tau_label", CERTIFY_ONCE_CASES,
                         ids=[c[0] for c in CERTIFY_ONCE_CASES])
def test_target_involution_certified_once(monkeypatch, label, q, req, tau_label):
    calls = []
    certify = Involution.verify

    def counting(self):
        calls.append(self)
        return certify(self)

    monkeypatch.setattr(Involution, "verify", counting)
    wit = construct_composition(q, req)
    assert wit.tau.label == tau_label
    assert sum(1 for inv in calls if inv is wit.tau) == 1


@pytest.mark.parametrize("label,q,req,tau_label", CERTIFY_ONCE_CASES,
                         ids=[c[0] for c in CERTIFY_ONCE_CASES])
def test_witness_rejects_a_changed_involution_image(label, q, req, tau_label):
    wit = construct_composition(q, req)
    F = wit.target.F
    image = wit.tau.images[-1]
    k = next(iter(image))
    image[k] = F.add(image[k], F.one())
    with pytest.raises(CertificationError):
        wit.verify()


def test_extend_involution_reports_the_type_of_tau(monkeypatch):
    results = []
    extend = compose.extend_involution

    def recording(B, *args, **kwargs):
        got = extend(B, *args, **kwargs)
        if got is not None:
            results.append((B, got))
        return got

    monkeypatch.setattr(compose, "extend_involution", recording)
    for q, req in [(diag(1, 1, 1), {"kind": "first", "c": HH, "t": "orthogonal"}),
                   (diag(1, 1, 1), {"kind": "first", "c": TRIV, "t": "symplectic"}),
                   (diag(1, -1, 1, -1, 1, -1), {"kind": "first", "c": TRIV, "t": "orthogonal"})]:
        construct_composition(q, req)
    assert len(results) >= 3
    for B, (tau, ttype) in results:
        assert ttype == involution_type(B, tau)
