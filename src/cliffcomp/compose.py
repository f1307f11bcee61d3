"""Explicit composition homomorphisms at the predicted minimal degrees.

construct_composition builds, for a form or pair source and a requested
target type, an algebra with involution (B, tau) together with a certified
homomorphism alpha from the even Clifford algebra C such that
tau . alpha = alpha . sigma_bar.  The degree of B over its center matches
the minimal-degree formula (exactly when the formula is exact, by a
divisibility check otherwise).

Every witness is built by the same steps: pick a block with a first-kind
involution (C itself, a corner of it, or the full Clifford algebra of a
rescaled form), twist it by a quaternion model when its class is at
distance 1 from the target, finish the target (extend the involution,
double by a 2x2 matrix layer, pair with the opposite algebra, or extend
scalars to S), and assemble the witness.

The steps read what the source already holds.  An involution extension
tau = Int(u) . sigma0 must intertwine alpha only on the proved generating
set of C (C.generators()): the equations are linear in u and pass from x
and y to xy, so one sparse solve over the rows of all of them gives the
space of u.  The rescaling isomorphism C0(q) -> C(lam q) is written out on
the basis, e_S -> lam^(-|S|/2) e_S, and the class of C(lam q) comes from
the scaling formula [C(lam q)] = [C(q)] (lam, d) for even n, so no
rescaled form is diagonalized.  A corner of a split center C0 = C+ x C-
carries its own embed and project and takes its class from the invariant
profile, c_plus at the central idempotent e and c_minus at 1 - e; over Q
a degree-2 corner of a form recovers its symbol, certified, to agree.

Theorems replace trial searches.  For invertible u with sigma0(u) =
eps u, Sym(Int(u) . sigma0) = u Sym_eps(sigma0), so outside
characteristic 2 the sign eps fixes the type of the extension: one
kernel, of the sign the wanted type needs, is solved, and an empty one
proves that the type switch needs the 2x2 doubling.  The rescaling lam is
one F2 solve for a square class with prescribed Hilbert symbols
(brauer.solve_symbols), the quaternion model of a twist one such solve
per candidate a, and the primes widen until there is a solution, which
Serre's ch. III, Thm 4 with Dirichlet's theorem provides.  Candidates
for u, and for the one anisotropic-vector search (square_unit: the
generators of a quaternion symbol, the vector v of the vector twist),
come from one fixed list, the signed sums of spanning vectors
(algebra.signed_sums), so a witness depends on its problem alone.

Which certificate runs where: the source involution sigma_bar is
certified when the source is built (even_clifford, clifford_of_pair), or
by construct_composition when it is handed a prepared SourceData.
CompositionWitness.verify(), which construct_composition calls before
returning, certifies alpha, tau, the intertwining, the type of tau and
the degree.  The steps build the maps inside tau and alpha (corner
restrictions, twists, extension candidates, tensor factors, the swap,
the conjugate transpose, the rescaling) uncertified: each is certified
once, as part of tau or alpha, unless tau is sigma_bar itself.

The certificates are exhaustive and sample nothing, and each runs on the
proved generators of its algebra (Algebra.generators): alpha as a
homomorphism and tau as a homomorphism to B^op, each generator against
every basis element; tau^2 = id on the generators of B, since tau^2 is an
endomorphism; and the intertwining on the generators of C, since with
alpha, sigma_bar and tau certified it holds on a subalgebra.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import CertificationError, NotCoveredError, UnsupportedInputError
from .scalars import RationalField, EtaleQuadratic, squarefree_part, trial_factor
from .linalg import kernel
from .algebra import (
    Algebra,
    AlgebraHom,
    El,
    ExplicitAlgebra,
    FieldAlgebra,
    Involution,
    MatrixAlgebra,
    OppositeAlgebra,
    ProductAlgebra,
    QuaternionAlgebra,
    TensorAlgebra,
    alg_inverse,
    center_basis,
    center_structure,
    corner_algebra,
    involution_on_tensor,
    involution_type,
    restrict_involution,
    signed_sums,
    square_unit,
    swap_involution,
    transpose_involution,
    twist_involution,
)
from .quadform import QuadraticSpace
from .clifford import CliffordAlgebra, even_clifford, PairCliffordData
from .brauer import BrauerClass, quaternion_model, quaternion_symbol_of, solve_symbols, widening
from .mcd import (
    InvariantProfile,
    McdResult,
    mcd_first_kind,
    mcd_unitary,
    admissible_degree,
    distance_over,
    profile_from_form,
    profile_from_pair_clifford,
    EXACT,
    NOT_COVERED,
)

ORTH, SYMP = "orthogonal", "symplectic"


# ---------------------------------------------------------------------------
# small involution helpers

def etale_algebra(S: EtaleQuadratic):
    """A quadratic field datum as a 2-dimensional explicit algebra, together
    with its standard involution."""
    if S.split:
        raise UnsupportedInputError("split etale data are handled by product targets")
    F = S.field
    one = F.one()
    ww = {0: S.datum, 1: one} if S.char2 else {0: S.datum}
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): ww}
    E = ExplicitAlgebra(F, 2, table, {0: one}, label="S")
    imgs = []
    for t in range(2):
        c0, c1 = (one, F.zero()) if t == 0 else (F.zero(), one)
        d0, d1 = S.conj_coords(c0, c1)
        imgs.append({k: v for k, v in ((0, d0), (1, d1)) if not F.is_zero(v)})
    iota = Involution(E, imgs, label="iota")
    return E, iota


# ---------------------------------------------------------------------------
# involution extension by an inner twist

def _constraint_kernel(B: Algebra, constraints: list, sigma0: Involution, eps) -> list:
    """Basis of {u : u sigma0(x) = y u for all (x, y), sigma0(u) = eps u}.

    Each condition is a linear map in u; column j stacks the images of
    e_j under every map, labelled (map index, basis index), and one kernel
    solves them all.
    """
    maps = [lambda u, sx=sigma0.apply(x), y=y: B.mul(u, sx) - B.mul(y, u)
            for x, y in constraints]
    maps.append(lambda u: sigma0.apply(u) - eps * u)
    cols = []
    for j in range(B.dim):
        ej = B.basis_el(j)
        cols.append({(m, i): v for m, image_of in enumerate(maps)
                     for i, v in image_of(ej).c.items()})
    return kernel(B.F, cols, B.dim)


# Candidates tried for u: the first signed sums of the kernel basis.
EXTENSION_CANDIDATES = 64


def extend_involution(B: Algebra, constraints: list, sigma0: Involution,
                      want: Optional[str] = None):
    """An involution tau = Int(u) . sigma0 on B with tau(x) = y for every
    constraint pair (x, y), of the wanted type.

    Returns (tau, type of tau) or None.  For invertible u with sigma0(u) =
    eps u, Sym(tau) = u Sym_eps(sigma0) (Knus-Merkurjev-Rost-Tignol, Prop.
    2.7), so outside characteristic 2 the sign eps alone fixes the type:
    eps = 1 keeps the type of sigma0 and eps = -1 switches the first-kind
    type.  One kernel, of the sign the wanted type needs, is solved, and
    the first invertible one of its first EXTENSION_CANDIDATES signed sums
    is kept.  In characteristic 2 eps is 1 and Alt(tau), not eps, decides
    the type, so tau is typed there.  No candidate is certified here: the
    witness that keeps one certifies it once, in CompositionWitness.verify.
    """
    F = B.F
    type0 = involution_type(B, sigma0)
    if want in (None, type0) and all(sigma0.apply(x) == y for x, y in constraints):
        return sigma0, type0
    flip = F.char != 2 and want not in (None, type0)
    if flip and "unitary" in (type0, want):
        return None  # an inner twist keeps the kind
    eps = F.neg(F.one()) if flip else F.one()
    space = [El(B, v) for v in _constraint_kernel(B, constraints, sigma0, eps)]
    if not space:
        return None
    for u in itertools.islice(signed_sums(space), EXTENSION_CANDIDATES):
        uinv = alg_inverse(B, u)
        if uinv is None:
            continue
        tau = twist_involution(sigma0, u, uinv, label="tau")
        if F.char != 2:
            return tau, want or type0
        ttype = involution_type(B, tau)
        return (tau, ttype) if want in (None, ttype) else None
    return None


# ---------------------------------------------------------------------------
# sources

@dataclass
class SourceData:
    """A source (C, sigma_bar) together with its invariant profile."""

    profile: InvariantProfile
    C0: Algebra
    sigma: Involution
    q: Optional[QuadraticSpace] = None
    label: str = ""


def source_from_form(q: QuadraticSpace) -> SourceData:
    prof = profile_from_form(q)
    C, C0, embed, project, tau = even_clifford(q)
    return SourceData(prof, C0, tau, q=q, label=q.label)


def source_from_pair(data: PairCliffordData) -> SourceData:
    prof = profile_from_pair_clifford(data)
    return SourceData(prof, data.C, data.sigma_bar, label=getattr(data.C, "label", "C"))


def _constraints_for(src: SourceData, alpha_of) -> list:
    """(alpha(g), alpha(sigma(g))) for the proved generators g of C0: an
    involution intertwining alpha on generators intertwines it everywhere."""
    gens = [src.C0.basis_el(g) for g in src.C0.generators()]
    return [(alpha_of(g), alpha_of(src.sigma.apply(g))) for g in gens]


# ---------------------------------------------------------------------------
# corner data for split centers

def _split_corners(src: SourceData) -> list:
    """Both corner algebras of a split-center source, with the classes of
    the invariant profile: c_plus for the corner of e, c_minus for that of
    1 - e.

    A pair profile read both classes off these same corners, since
    center_structure gives the same e on every call.  Over Q a
    degree-2 corner of a form source recovers its symbol, certified, and
    carries it; the recovered class must be the profile's.
    """
    C0 = src.C0
    F = C0.F
    prof = src.profile
    if not prof.z_split:
        raise UnsupportedInputError("corner data needs a split center")
    _, e = center_structure(C0)
    if e is None:
        raise CertificationError("profile says split center, algebra disagrees")
    out = []
    for idem, cls in ((e, prof.c_plus), (C0.one() - e, prof.c_minus)):
        corner = corner_algebra(C0, idem, label=f"{C0.label}^")
        if src.q is not None and corner.dim == 4 and isinstance(F, RationalField):
            got = BrauerClass(F, [quaternion_symbol_of(corner)])
            if got != cls:
                raise CertificationError("corner class disagrees with the invariant profile")
            cls = got
        out.append({"B0": corner, "cls": cls})
    return out


# ---------------------------------------------------------------------------
# full-Clifford targets for field centers (form sources)

def _scaled_even_iso(src: SourceData, lam) -> tuple:
    """The canonical isomorphism from C0 of a form onto C0 of its rescaling,
    viewed inside the full Clifford algebra of the rescaled form.

    e_S for an even set S is the ordered product of |S|/2 pairs e_i e_j,
    and e_i e_j goes to lam^-1 e_i e_j, so e_S goes to lam^(-|S|/2) e_S.
    Returns (Cfull, hom C0 -> Cfull, reversal of Cfull); alpha = iota . hom
    with iota injective, so the certificate of alpha covers the hom.
    """
    q = src.q
    F = q.F
    Cf = CliffordAlgebra(q.scale(lam))
    powers = [F.one()]
    for _ in range(q.n // 2):
        powers.append(F.div(powers[-1], lam))
    images = [{m: powers[bin(m).count("1") // 2]} for m in src.C0.masks]
    return Cf, AlgebraHom(src.C0, Cf, images, label="rescale"), Cf.reversal()


def _best_rescaling(plan: "_Plan") -> tuple:
    """The scaling lam of the source form nearest to the target, and the
    class [C(lam q)] = [C(q)] (lam, d), d the signed discriminant (Lam, ch.
    V).  lam is 1 at the formula's distance 1, else the first solution over
    2, 3 and the primes of d and of both classes (brauer.solve_symbols)."""
    q, prof, req = plan.src.q, plan.src.profile, plan.request
    F, c, d = q.F, prof.c_base, q.center_datum()
    target, fields = (req["c"], ()) if req["kind"] == "first" else (req["c0"], (req["S"],))
    lam = F.one()
    if isinstance(F, RationalField) and distance_over(F, c, target, prof.z_etale, *fields) == 0:
        primes = {2, 3, *trial_factor(squarefree_part(d)),
                  *(v.p for v in c.support | target.support if not v.is_real)}
        lam = next(x for ps in widening(primes)
                   if (x := solve_symbols(d, c.support ^ target.support, ps, *fields)) is not None)
    return lam, c * BrauerClass(F, [(lam, d)])


# ---------------------------------------------------------------------------
# witnesses

@dataclass
class CompositionWitness:
    """A certified composition homomorphism alpha: (C, sigma) -> (B, tau)."""

    source: SourceData
    request: dict
    target: Algebra
    tau: Involution
    alpha: AlgebraHom
    expected: McdResult
    degree: int
    tau_type: str
    class_symbols: list
    trace: list = field(default_factory=list)

    def verify(self) -> dict:
        """Recompute every certificate; raises on any failure.

        The homomorphism and involution certificates report their generator
        and check counts; the intertwining check runs once per generator
        of C.
        """
        checks = {}
        checks["algebra_hom"] = self.alpha.verify()
        checks["involution"] = self.tau.verify()
        if not self.alpha.respects(self.source.sigma, self.tau):
            raise CertificationError("homomorphism does not intertwine the involutions")
        checks["intertwines"] = {"checks": len(self.source.C0.generators())}
        ttype = involution_type(self.target, self.tau)
        if ttype != self.tau_type:
            raise CertificationError(f"involution type changed: {ttype}")
        kind = self.request["kind"]
        if kind == "unitary" and ttype != "unitary":
            raise CertificationError("unitary request produced a first-kind involution")
        if kind == "first":
            if ttype == "unitary":
                raise CertificationError("first-kind request produced a unitary involution")
            if self.target.F.char != 2 and ttype != self.request["t"]:
                raise CertificationError(f"wanted type {self.request['t']}, got {ttype}")
        checks["type"] = ttype
        deg = _degree_over_center(self.target, unitary=(kind == "unitary"))
        if deg != self.degree:
            raise CertificationError("stored degree is stale")
        checks["degree"] = deg
        if self.expected.status == EXACT:
            if deg != self.expected.value:
                raise CertificationError(
                    f"degree {deg} does not match the exact formula value {self.expected.value}"
                )
        elif deg % self.expected.value:
            raise CertificationError(
                f"degree {deg} is not a multiple of {self.expected.value}"
            )
        checks["matches_formula"] = self.expected.status
        if self.source.profile.n % 4 == 2:
            if not self.alpha.is_injective():
                raise CertificationError("compositions in degree 2 mod 4 must be injective")
            checks["injective"] = True
        adm = admissible_degree(self.source.profile, self.request, deg)
        if not adm["ok"]:
            raise CertificationError("witness degree fails the admissibility form")
        checks["admissible"] = adm["case"]
        return checks

    def to_json(self) -> dict:
        F = self.target.F
        return {
            "source": self.source.label,
            "kind": self.request["kind"],
            "target_dim": self.target.dim,
            "degree": self.degree,
            "log2_degree": self.degree.bit_length() - 1,
            "involution_type": self.tau_type,
            "expected": self.expected.to_json(),
            "class_symbols": [[F.fmt(a), F.fmt(b)] for a, b in self.class_symbols],
            "hom_images": [
                [F.fmt(c) for c in self.alpha.apply(self.source.C0.basis_el(i)).dense()]
                for i in range(self.source.C0.dim)
            ],
            "involution_images": [
                [F.fmt(c) for c in self.tau.apply(self.target.basis_el(i)).dense()]
                for i in range(self.target.dim)
            ],
            "trace": list(self.trace),
        }


def _degree_over_center(B: Algebra, unitary: bool) -> int:
    if unitary:
        if len(center_basis(B)) != 2:
            raise CertificationError("unitary target must have a quadratic etale center")
        d = math.isqrt(B.dim // 2)
        if 2 * d * d != B.dim:
            raise CertificationError("target dimension is not 2 d^2")
        return d
    d = math.isqrt(B.dim)
    if d * d != B.dim:
        raise CertificationError("target dimension is not a perfect square")
    return d


# ---------------------------------------------------------------------------
# construction steps: pick a block, twist it, finish the target, assemble

@dataclass
class _Plan:
    """What the steps of one construction share: the source, the request,
    the formula value, and the trace and quaternion symbols so far (both
    go into the witness in the order the steps append them)."""

    src: SourceData
    request: dict
    expected: McdResult
    trace: list
    symbols: list = field(default_factory=list)

    def witness(self, B: Algebra, alpha_of, tau: Involution, tau_type: str) -> CompositionWitness:
        """The witness alpha_of: C0 -> (B, tau), not yet certified."""
        C0 = self.src.C0
        images = [alpha_of(C0.basis_el(i)).c for i in range(C0.dim)]
        alpha = AlgebraHom(C0, B, images, label="alpha")
        deg = _degree_over_center(B, unitary=(self.request["kind"] == "unitary"))
        return CompositionWitness(self.src, self.request, B, tau, alpha, self.expected, deg,
                                  tau_type, self.symbols, self.trace)


@dataclass
class _Block:
    """An algebra B0 of Brauer class cls with a map alpha0 from C0 and an
    involution sigma0 of the first kind (None on a corner that the
    canonical involution moves)."""

    B0: Algebra
    alpha0: object
    sigma0: Optional[Involution]
    cls: BrauerClass


def _pick_block(plan: _Plan, dist) -> _Block:
    """C0 itself for odd n; for a split center the corner nearer to the
    target; for a field center the full Clifford algebra of the rescaling
    nearest to it.  dist(cls) is the distance of a class to the target."""
    src = plan.src
    prof = src.profile
    if prof.n % 2:
        return _Block(src.C0, lambda x: x, src.sigma, prof.c_odd)
    if prof.z_split:
        side = min(_split_corners(src), key=lambda s: dist(s["cls"]))
        plan.trace.append(f"projected to the factor of class {side['cls']}")
        sigma0 = restrict_involution(side["B0"], src.sigma, label="sigma^")
        return _Block(side["B0"], side["B0"].project, sigma0, side["cls"])
    if src.q is None:
        raise UnsupportedInputError(
            "field-center pair sources have no full-Clifford model at this scale"
        )
    lam, cls = _best_rescaling(plan)
    Cf, phi, rev = _scaled_even_iso(src, lam)
    plan.trace.append(f"rescaled the form by {prof.F.fmt(lam)}")
    return _Block(Cf, phi.apply, rev, cls)


def _twist(plan: _Plan, block: _Block, target: BrauerClass, dist) -> _Block:
    """The block tensored with a quaternion model of target * cls when its
    class is at distance 1 from the target; the block itself at distance 0."""
    if dist(block.cls) == 0:
        return block
    F = block.B0.F
    G = QuaternionAlgebra(F, *quaternion_model(target * block.cls))
    T = TensorAlgebra(block.B0, G, label=f"{block.B0.label}(x)Q")
    sigma = None if block.sigma0 is None else involution_on_tensor(T, block.sigma0, G.gamma())
    plan.symbols.append((G.a, G.b))
    plan.trace.append(f"tensored with the quaternion algebra ({F.fmt(G.a)},{F.fmt(G.b)})")
    return _Block(T, lambda x: T.pure(block.alpha0(x), G.one()), sigma, target)


def _extend(plan: _Plan, B: Algebra, alpha_of, sigma0: Involution, want):
    """(tau, type) extending sigma0 to an involution that alpha_of intertwines."""
    return extend_involution(B, _constraints_for(plan.src, alpha_of), sigma0, want=want)


def _matrix_layer(B0: Algebra, theta: Involution) -> tuple:
    """M_2(B0) with the conjugate transpose over theta."""
    M = MatrixAlgebra(B0, 2, label=f"M2({B0.label})")
    return M, transpose_involution(M, theta, label="conj-transpose")


def _paired_with_opposite(src: SourceData, block: _Block) -> tuple:
    """B0 x B0^op under the swap involution, with x -> (alpha0(x), alpha0(sigma(x)))."""
    B = ProductAlgebra(block.B0, OppositeAlgebra(block.B0), label=f"{block.B0.label}x op")

    def alpha_of(x):
        y = block.alpha0(src.sigma.apply(x))
        return B.inject_left(block.alpha0(x)) + B.inject_right(El(B.B, dict(y.c)))

    return B, alpha_of, swap_involution(B)


# ---------------------------------------------------------------------------
# first kind

def construct_first_kind(src: SourceData, c: BrauerClass, t: str) -> CompositionWitness:
    prof = src.profile
    F = prof.F
    if F.char == 2:
        t = SYMP  # the two first-kind types coincide as target types
    expected = mcd_first_kind(prof, c, t)
    if expected.status == NOT_COVERED:
        raise NotCoveredError(f"no construction covers this case: {expected.case}")
    plan = _Plan(src, {"kind": "first", "c": c, "t": t}, expected,
                 [f"target: first kind, type {t}, case {expected.case}"])
    want = None if F.char == 2 else t

    if prof.n % 4 == 2 and prof.z_split:  # injectivity needs both corners
        return _two_corners_first_kind(plan, c, want)

    block = _twist(plan, _pick_block(plan, c.distance), c, c.distance)
    B1, a1, sigma1 = block.B0, block.alpha0, block.sigma0
    deg1 = _degree_over_center(B1, unitary=False)
    if deg1 == expected.value or (expected.status != EXACT and deg1 % expected.value == 0):
        got = _extend(plan, B1, a1, sigma1, want)
        if got is not None:
            plan.trace.append(f"involution extended on a degree-{deg1} target")
            return plan.witness(B1, a1, *got)
        if expected.status == EXACT:
            raise CertificationError(
                "the formula promises this degree but no involution extension was found"
            )
    elif expected.status == EXACT and deg1 > expected.value:
        # doubling only moves further from the exact value
        raise NotCoveredError(
            f"the nearest block has degree {deg1}, above the exact formula value {expected.value}"
        )
    elif deg1 < expected.value:
        # the formula includes a type-switch factor: a direct extension at
        # the lower degree must not exist
        if _extend(plan, B1, a1, sigma1, t) is not None:
            raise CertificationError(
                f"found a type-{t} extension below the formula degree"
            )
        plan.trace.append(f"no type-{t} extension exists at degree {deg1}; doubling")

    # the type switch costs a factor of 2: a 2x2 matrix layer
    M, sigma2 = _matrix_layer(B1, sigma1)
    zero = B1.zero()

    def a2(x):
        y = a1(x)
        return M.from_matrix([[y, zero], [zero, y]])

    got = _extend(plan, M, a2, sigma2, want)
    if got is None:
        raise CertificationError("no involution extension found on the doubled target")
    plan.trace.append("doubled by a 2x2 matrix layer for the type switch")
    return plan.witness(M, a2, *got)


def _two_corners_first_kind(plan: _Plan, c: BrauerClass, want) -> CompositionWitness:
    """n = 2 mod 4 with split center: block-diagonal target through one
    corner and the twisted image of the other, which keeps the map
    injective because the canonical involution exchanges the corners."""
    src = plan.src
    side = _split_corners(src)[0]
    theta0 = _corner_first_kind_involution(src, side)
    block = _twist(plan, _Block(side["B0"], side["B0"].project, theta0, side["cls"]), c, c.distance)
    a, theta = block.alpha0, block.sigma0
    M, sigma0 = _matrix_layer(block.B0, theta)
    zero = block.B0.zero()

    def alpha_of(x):
        bot = theta.apply(a(src.sigma.apply(x)))
        return M.from_matrix([[a(x), zero], [zero, bot]])

    got = _extend(plan, M, alpha_of, sigma0, want)
    if got is None:
        raise CertificationError("no involution extension on the two-corner target")
    plan.trace.append("both corners mapped block-diagonally, the second one twisted")
    return plan.witness(M, alpha_of, *got)


def _corner_first_kind_involution(src: SourceData, side) -> Involution:
    """A first-kind involution on a corner when the canonical one swaps the
    corners (n = 2 mod 4): the reversal of C twisted by an anisotropic
    vector v, with v^-1 = v / q(v), restricted to C0 and then to the
    corner.  v is the first generator e_i of C, or sum or difference of
    two, whose square q(v) is nonzero (square_unit): were all of them
    isotropic, the polar form would vanish and q be degenerate.  The twist
    fixes the center pointwise, so it restricts."""
    if src.q is None:
        raise UnsupportedInputError(
            "pair sources in degree 2 mod 4 have no corner involution at this scale"
        )
    C0 = src.C0
    C = C0.C
    v, qv = square_unit(C, [C.basis_el(1 << i) for i in range(C.n)], "anisotropic vector")
    twist = twist_involution(C.reversal(), v, C.F.inv(qv) * v, label="vector-twist")
    theta_c0 = restrict_involution(C0, twist, label="vector-twist")
    return restrict_involution(side["B0"], theta_c0, label="theta")


# ---------------------------------------------------------------------------
# unitary

def construct_unitary(src: SourceData, S: EtaleQuadratic, c0: BrauerClass) -> CompositionWitness:
    prof = src.profile
    F = prof.F
    expected = mcd_unitary(prof, S, c0)
    if expected.status == NOT_COVERED:
        raise NotCoveredError(f"no construction covers this case: {expected.case}")
    n = prof.n
    plan = _Plan(src, {"kind": "unitary", "S": S, "c0": c0}, expected,
                 [f"target: unitary, case {expected.case}"])

    def dist(cls):
        return distance_over(F, c0, cls, S)

    center_matches = n % 4 == 2 and not prof.z_split and prof.z_etale.is_isomorphic(S)
    two_corners = n % 4 == 2 and prof.z_split
    if center_matches:
        # the source algebra itself, twisted by a quaternion layer at
        # distance 1, is the minimal target
        block = _Block(src.C0, lambda x: x, src.sigma, prof.c_base)
    elif two_corners:
        # one corner paired with its opposite: the canonical involution
        # exchanges the corners, so the map stays injective
        side = _split_corners(src)[0]
        block = _Block(side["B0"], side["B0"].project, None, side["cls"])
    else:
        block = _pick_block(plan, dist)
    block = _twist(plan, block, c0, dist)

    if center_matches:
        if block.B0 is src.C0:
            plan.trace.append("the source algebra itself realizes the minimal degree")
        B, alpha_of, tau = block.B0, block.alpha0, block.sigma0
    elif S.split:
        B, alpha_of, tau = _paired_with_opposite(src, block)
        plan.trace.append("one corner paired with its opposite under the swap involution"
                          if two_corners else
                          "paired with the opposite algebra under the swap involution")
    else:
        E, iota = etale_algebra(S)
        B = TensorAlgebra(block.B0, E, label=f"{block.B0.label}(x)S")
        tau = involution_on_tensor(B, block.sigma0, iota)
        alpha_of = lambda x: B.pure(block.alpha0(x), E.one())
        plan.trace.append("extended scalars to S; the involution conjugates S")
    return plan.witness(B, alpha_of, tau, "unitary")


# ---------------------------------------------------------------------------
# entry point

def construct_composition(source, request: dict) -> CompositionWitness:
    """Build and certify a composition witness.

    source: a QuadraticSpace, PairCliffordData, or SourceData.
    request: {"kind": "first", "c": BrauerClass, "t": str}
          or {"kind": "unitary", "S": EtaleQuadratic, "c0": BrauerClass}.
    """
    if isinstance(source, QuadraticSpace):
        src = source_from_form(source)
    elif isinstance(source, PairCliffordData):
        src = source_from_pair(source)
    elif isinstance(source, SourceData):
        src = source
        src.sigma.verify()
    else:
        raise UnsupportedInputError(f"cannot build a source from {type(source).__name__}")
    if request["kind"] == "first":
        wit = construct_first_kind(src, request["c"], request["t"])
    elif request["kind"] == "unitary":
        wit = construct_unitary(src, request["S"], request["c0"])
    else:
        raise UnsupportedInputError(f"unknown request kind {request['kind']!r}")
    wit.verify()
    return wit


# ---------------------------------------------------------------------------
# regular representation (distance-bound witnesses)

def regular_representation(A: Algebra) -> AlgebraHom:
    """The left regular representation of A on itself, certified."""
    F = A.F
    M = MatrixAlgebra(FieldAlgebra(F), A.dim, label=f"End({A.label})")
    images = []
    for i in range(A.dim):
        # the matrix of left multiplication by e_i has e_i e_c as column c
        ei = A.basis_el(i)
        images.append({M._idx(r, c, 0): v for c in range(A.dim)
                       for r, v in A.mul(ei, A.basis_el(c)).c.items()})
    hom = AlgebraHom(A, M, images, label="regular")
    hom.verify()
    if not hom.is_injective():
        raise CertificationError("regular representation must be injective")
    return hom
