"""A worked quaternionic model for five-dimensional forms.

For q = <1, -a, -b, -1, 1> the even Clifford algebra is isomorphic to
M_2(Q) with Q = (a, b), and the canonical involution becomes the adjoint
involution of an explicit rank-2 hermitian form over Q.  Every identity
the model asserts is certified by direct computation, including the
composition equation h(phi(x, y), phi(x, y')) = q(x) h(y, y') and the
fact that the model realizes the minimal composition degree.
"""

from dataclasses import dataclass, field
from typing import Optional

from .errors import CertificationError, UnsupportedInputError
from .scalars import Field, RationalField
from .quadform import QuadraticSpace
from .algebra import (
    El,
    AlgebraHom,
    Involution,
    MatrixAlgebra,
    QuaternionAlgebra,
    adjoint_involution,
    alg_inverse,
    hom_on_generators,
    involution_type,
    twist_involution,
)
from .clifford import even_clifford
from .brauer import BrauerClass
from .mcd import EXACT, mcd_first_kind, profile_from_form


@dataclass
class EvenModelReport:
    """Certified data of the quaternionic model."""

    q: QuadraticSpace
    Q: QuaternionAlgebra
    M: MatrixAlgebra
    psi: AlgebraHom
    sigma: Involution
    tau_type: str
    minimal_degree: Optional[int]
    checks: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        F = self.q.F
        return {
            "form": self.q.label,
            "quaternion_symbol": [F.fmt(self.Q.a), F.fmt(self.Q.b)],
            "target": self.M.label,
            "involution_type": self.tau_type,
            "degree": self.M.deg,
            "minimal_degree": self.minimal_degree,
            "iso_images": [
                [F.fmt(c) for c in self.psi.apply(self.psi.A.basis_el(i)).dense()]
                for i in range(self.psi.A.dim)
            ],
            "checks": dict(self.checks),
        }


def quaternionic_even_model(F: Field, a, b) -> EvenModelReport:
    """Build and certify the M_2(Q) model of C0(<1, -a, -b, -1, 1>).

    Returns a report whose checks all passed; raises CertificationError
    otherwise.  Needs char != 2 and a, b invertible.
    """
    if F.char == 2:
        raise UnsupportedInputError("the quaternionic model needs characteristic != 2")
    if F.is_zero(a) or F.is_zero(b):
        raise UnsupportedInputError("the model parameters must be invertible")
    one = F.one()
    q = QuadraticSpace.diagonal(F, [one, F.neg(a), F.neg(b), F.neg(one), one])
    C, C0, embed, project, tau0 = even_clifford(q)

    Q = QuaternionAlgebra(F, a, b)
    M = MatrixAlgebra(Q, 2)
    i_, j_, k_ = Q.basis_el(1), Q.basis_el(2), Q.basis_el(3)
    u, z = Q.one(), Q.zero()

    # images of z e_t, t = 1..4, z the unit vector e_0 of the form: the
    # generators C0.generators() proves, in this order
    E = [
        M.from_matrix([[i_, z], [z, -i_]]),
        M.from_matrix([[j_, z], [z, -j_]]),
        M.from_matrix([[z, u], [u, z]]),
        M.from_matrix([[z, u], [-u, z]]),
    ]
    psi = hom_on_generators(C0, M, E, label="psi")
    psi.verify()
    checks = {"iso": psi.is_bijective()}
    if not checks["iso"]:
        raise CertificationError("the model map is not bijective")

    # tilde fixes i and j and negates k; it agrees with conjugation by k
    tilde = Involution(Q, [{0: one}, {1: one}, {2: one}, {3: F.neg(one)}],
                       label="tilde")
    tilde.verify()
    kinv = alg_inverse(Q, k_)
    checks["tilde_is_k_twist"] = tilde.images == twist_involution(Q.gamma(), k_, kinv).images

    def sprint(x: El) -> El:
        m = M.to_matrix(x)
        return M.from_matrix([
            [tilde.apply(m[1][1]), -tilde.apply(m[0][1])],
            [-tilde.apply(m[1][0]), tilde.apply(m[0][0])],
        ])

    sigma = Involution(M, [sprint(M.basis_el(t)).c for t in range(M.dim)],
                       label="model")
    sigma.verify()
    if not psi.respects(tau0, sigma):
        raise CertificationError("the model involution does not match the canonical one")
    checks["involution_match"] = True

    # the same involution is adjoint to an anti-hermitian form over tilde
    # and to a hermitian form over the canonical involution of Q
    G1 = [[z, u], [-u, z]]
    G2 = [[z, k_], [-k_, z]]
    adj1 = adjoint_involution(M, G1, base_inv=tilde, label="adj1")
    adj2 = adjoint_involution(M, G2, base_inv=Q.gamma(), label="adj2")
    checks["adjoint_anti_hermitian"] = all(
        adj1.apply(M.basis_el(t)) == sigma.apply(M.basis_el(t)) for t in range(M.dim)
    )
    checks["adjoint_hermitian"] = all(
        adj2.apply(M.basis_el(t)) == sigma.apply(M.basis_el(t)) for t in range(M.dim)
    )
    if not (checks["adjoint_anti_hermitian"] and checks["adjoint_hermitian"]):
        raise CertificationError("adjoint forms do not reproduce the model involution")

    tau_type = involution_type(M, sigma)

    # the composition map phi(x, y) = psi(z x) y and its defining equation
    Em = [M.to_matrix(e) for e in E]

    def m_of(x: list) -> list:
        out = [[x[0] * u, z], [z, x[0] * u]]
        for t in range(4):
            for r in range(2):
                for c in range(2):
                    out[r][c] = out[r][c] + x[1 + t] * Em[t][r][c]
        return out

    def phi(x: list, y: tuple) -> tuple:
        m = m_of(x)
        return (m[0][0] * y[0] + m[0][1] * y[1], m[1][0] * y[0] + m[1][1] * y[1])

    def herm(theta: Involution, G: list, y: tuple, yp: tuple) -> El:
        acc = Q.zero()
        for r in range(2):
            for s in range(2):
                if not G[r][s].is_zero():
                    acc = acc + theta.apply(y[r]) * G[r][s] * yp[s]
        return acc

    xs = []
    for s in range(5):
        v = [F.zero()] * 5
        v[s] = one
        xs.append(v)
    for s in range(5):
        for t in range(s + 1, 5):
            v = [F.zero()] * 5
            v[s] = one
            v[t] = one
            xs.append(v)
    ys = [(Q.basis_el(t), Q.zero()) for t in range(4)]
    ys += [(Q.zero(), Q.basis_el(t)) for t in range(4)]
    for theta, G, key in ((tilde, G1, "composes_anti_hermitian"),
                          (Q.gamma(), G2, "composes_hermitian")):
        ok = True
        for x in xs:
            qx = q.q(x)
            for y in ys:
                fy = phi(x, y)
                for yp in ys:
                    if herm(theta, G, fy, phi(x, yp)) != qx * herm(theta, G, y, yp):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        checks[key] = ok
        if not ok:
            raise CertificationError("the composition equation fails for the model")

    minimal = None
    if isinstance(F, RationalField):
        prof = profile_from_form(q)
        res = mcd_first_kind(prof, BrauerClass(F, [(a, b)]), tau_type)
        if res.status != EXACT or res.value != M.deg:
            raise CertificationError(
                f"model degree {M.deg} does not match the formula ({res.status}, {res.value})"
            )
        minimal = res.value
        checks["minimal_degree_match"] = True

    return EvenModelReport(q=q, Q=Q, M=M, psi=psi, sigma=sigma,
                           tau_type=tau_type, minimal_degree=minimal, checks=checks)
