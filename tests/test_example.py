"""The five-dimensional quaternionic model, machine-checked end to end."""

from fractions import Fraction

import pytest

from conftest import recording_homs, ref_hom_on_generators

from cliffcomp import example
from cliffcomp.errors import UnsupportedInputError
from cliffcomp.example import quaternionic_even_model
from cliffcomp.scalars import QQ, PrimeField


@pytest.mark.parametrize("a,b", [(-1, -1), (2, 3), (1, 1), (5, -7)])
def test_model_certifies_over_q(a, b):
    rep = quaternionic_even_model(QQ, Fraction(a), Fraction(b))
    assert all(rep.checks.values()), rep.checks
    assert rep.M.dim == 16 and rep.M.deg == 4
    assert rep.psi.is_bijective()
    assert rep.tau_type == "symplectic"
    assert rep.minimal_degree == 4


def test_model_composition_equation_is_exact():
    rep = quaternionic_even_model(QQ, Fraction(2), Fraction(3))
    assert rep.checks["composes_anti_hermitian"]
    assert rep.checks["composes_hermitian"]
    assert rep.checks["adjoint_anti_hermitian"]
    assert rep.checks["adjoint_hermitian"]


def test_model_over_finite_field():
    F5 = PrimeField(5)
    rep = quaternionic_even_model(F5, F5.from_int(1), F5.from_int(2))
    assert all(rep.checks.values())


def test_model_json_shape():
    rep = quaternionic_even_model(QQ, Fraction(-1), Fraction(-1))
    out = rep.to_json()
    assert out["degree"] == 4 and out["minimal_degree"] == 4
    assert out["involution_type"] == "symplectic"
    assert len(out["iso_images"]) == 16
    assert out["quaternion_symbol"] == ["-1", "-1"]
    assert all(out["checks"].values())


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0)])
def test_model_rejects_zero_parameters(a, b):
    with pytest.raises(UnsupportedInputError):
        quaternionic_even_model(QQ, Fraction(a), Fraction(b))


def test_model_rejects_char_2():
    F2 = PrimeField(2)
    with pytest.raises(UnsupportedInputError):
        quaternionic_even_model(F2, F2.one(), F2.one())


@pytest.mark.parametrize("F,a,b", [(QQ, Fraction(-1), Fraction(-1)), (QQ, Fraction(2), Fraction(5)),
                                   (PrimeField(3), 2, 2)], ids=str)
def test_model_map_matches_the_closure_reference(monkeypatch, F, a, b):
    # C0 proves the generators z e_t, z = e_0, t = 1..4, in the order of
    # the model's images; extending along its words and by a closure of
    # their own gives the same map
    calls = recording_homs(monkeypatch, example)
    quaternionic_even_model(F, a, b)
    (C0, M, gen_images, psi), = calls
    gen_pos = [C0.pos[1 | (1 << t)] for t in range(1, 5)]
    assert C0.generators() == gen_pos
    assert psi.images == ref_hom_on_generators(C0, M, gen_pos, gen_images).images
