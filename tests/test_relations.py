"""Metamorphic relations: changes of the input that must not change the answer.

Permuting the coordinates of a form, scaling one diagonal entry by a
nonzero square, and an integral unimodular change of basis give an
isometric form.  So `invariants` keeps its supports and trivial flags (the
chosen symbols and datum may move), `mcd` and `bound` keep their values,
and `compose` keeps the witness's degree and type.  The forms are
diagonal over Q and GF(3), and Gram forms over Q, GF(3) and GF(2).

Adding a hyperbolic plane H keeps the classes and the center:
C(q + H) is M_2(C(q)) and the signed discriminant does not move.  On
diagonals over Q with n = 6 and a split center, permutations and square
scalings also keep the witness that `compose` builds through the corners.

On a pair source A = Q1 (x) Q2 of degree 4 the center of the Clifford
algebra splits, and the classes of its two factors multiply to the class
of A: [C+][C-] = [A] = [Q1][Q2] (Knus-Merkurjev-Rost-Tignol, Thm 9.12).
The adjoint pair of a form q with a split center has the Clifford algebra
C0(q) (KMRT, section 8), so both of its factor classes are [C(q)], and a
composition built from the pair has the degree and type of one built
from q.

Adding four hyperbolic planes 4H moves n to n + 8 and multiplies the
degree of C by 16 = 2^4 without changing its classes, its center or the
type of its canonical involution.  So every case stays, every formula and
bound gains 4 in log2, and a degree 16 d is admissible exactly when d was.

Scaling an even-dimensional form over Q by lam twists its Clifford class
by the symbol (lam, d), d the signed discriminant (Lam, ch. V): the
identity compose reads rescaled classes from instead of diagonalizing.

An inner twist Int(u) . sigma is unchanged when u is a nonzero scalar,
and twisting by u and then by w is twisting by wu.  Rescaling a form
keeps its adjoint involution: B^-1 X^t B does not see the scalar.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cliffcomp import cli
from cliffcomp.algebra import (
    El,
    FieldAlgebra,
    MatrixAlgebra,
    QuaternionAlgebra,
    alg_inverse,
    transpose_involution,
    twist_involution,
)
from cliffcomp.brauer import BrauerClass
from cliffcomp.clifford import clifford_of_pair
from cliffcomp.compose import construct_composition
from cliffcomp.brauer import clifford_class_of_form, trivial_class
from cliffcomp.mcd import classify, profile_from_form, profile_from_pair_clifford
from cliffcomp.qpair import pair_from_form, pair_on_quaternion_tensor
from cliffcomp.quadform import QuadraticSpace
from cliffcomp.scalars import QQ, EtaleQuadratic, PrimeField, quad_ext_info

Q_ENTRIES = (1, -1, 2, -2, 3, -3, 5, -5, 7, -7)
Q_SQUARES = (4, 9, Fraction(1, 4), Fraction(25, 9))
TRIVIAL = {"type": "symplectic"}
TARGETS = {
    "Q": [{"type": "orthogonal"}, TRIVIAL, {"type": "orthogonal", "class": [[-1, -1]]},
          {"type": "unitary", "s": {"datum": -1}}, {"type": "unitary", "s": {"datum": 2}},
          {"type": "unitary", "s": {"split": True}}],
    "GF(3)": [{"type": "orthogonal"}, TRIVIAL, {"type": "unitary", "s": {"datum": 2}},
              {"type": "unitary", "s": {"split": True}}],
    "GF(2)": [TRIVIAL, {"type": "unitary", "s": {"datum": 1}},
              {"type": "unitary", "s": {"split": True}}],
}
# the quaternion parameters of the benchmark's pair sources
SYMBOL_POOL = (-1, 2, -2, 3, -3, 5, -5, 7)
COMPOSE_MAX_N = 4
EXAMPLES = 4


def call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(list(argv))
    return rc, (json.loads(out.getvalue()) if out.getvalue() else None)


def args(field, obj, target=None):
    argv = ["--field", field, "--object", json.dumps(obj)]
    if target is not None:
        argv += ["--type", target["type"]]
        if "class" in target:
            argv += ["--class", json.dumps(target["class"])]
        if "s" in target:
            argv += ["--s", json.dumps(target["s"])]
    return argv


def _classes(inv):
    """Supports and trivial flags of every class in an invariants object;
    the two factor classes of a split center as an unordered pair, since a
    permutation may swap the central idempotents."""
    def key(c):
        return (tuple(c["support"]), c["trivial"])
    out = {k: key(inv[k]) for k in ("clifford_class", "clifford_class_over_center") if k in inv}
    if "factor_classes" in inv:
        out["factor_classes"] = sorted(key(c) for c in inv["factor_classes"])
    if "center" in inv:
        out["center_split"] = inv["center"]["split"]
    return out


def invariants(field, obj):
    rc, inv = call("invariants", *args(field, obj))
    return rc, inv and _classes(inv)


def composed(field, obj, target):
    rc, res = call("compose", *args(field, obj, target))
    return rc, res and (res["witness"]["degree"], res["witness"]["involution_type"])


def answers(field, obj, n, compose_target):
    """The facts the relations keep, read from the CLI's JSON."""
    got = {"invariants": invariants(field, obj)}
    for k, target in enumerate(TARGETS[field]):
        rc, res = call("mcd", *args(field, obj, target))
        got[f"mcd{k}"] = (rc, res and (res["status"], res["value"]))
        rc, res = call("bound", *args(field, obj, target))
        got[f"bound{k}"] = (rc, res and (res["lower_bound"]["value"], res["lower_bound"]["equality"]))
    if n <= COMPOSE_MAX_N:
        got["compose"] = composed(field, obj, compose_target)
    return got


def permuted_gram(M, perm):
    """The coefficient matrix of q(x_perm) in upper-triangular form."""
    n = len(M)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a, b = sorted((perm[i], perm[j]))
            out[a][b] += M[i][j]
    return out


def diagonal_cases(field, n):
    pool = Q_ENTRIES if field == "Q" else (1, 2)
    return st.tuples(
        st.lists(st.sampled_from(pool), min_size=n, max_size=n),
        st.permutations(range(n)),
        st.integers(0, n - 1),
        st.sampled_from(Q_SQUARES if field == "Q" else (1, 4)),
        st.sampled_from(TARGETS[field]),
    )


@pytest.mark.parametrize("field", ["Q", "GF(3)"])
@pytest.mark.parametrize("n", range(2, 7))
def test_diagonal_forms_keep_their_answers(field, n):
    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
    @given(diagonal_cases(field, n))
    def check(case):
        diag, perm, at, square, target = case
        base = answers(field, {"diag": diag}, n, target)
        permuted = [diag[perm[i]] for i in range(n)]
        assert answers(field, {"diag": permuted}, n, target) == base
        scaled = list(diag)
        scaled[at] = str(Fraction(diag[at]) * Fraction(square))
        assert answers(field, {"diag": scaled}, n, target) == base

    check()


def split_center_cases():
    """Diagonals <a1, ..., a5, -a1...a5>, whose signed discriminant is a
    square, with a permutation, a square scaling and a target."""
    return st.tuples(
        st.lists(st.sampled_from(Q_ENTRIES), min_size=5, max_size=5),
        st.permutations(range(6)),
        st.integers(0, 5),
        st.sampled_from(Q_SQUARES),
        st.sampled_from(TARGETS["Q"]),
    )


def test_split_center_diagonals_keep_their_corner_witness():
    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
    @given(split_center_cases())
    def check(case):
        head, perm, at, square, target = case
        diag = head + [-math.prod(head)]
        base = composed("Q", {"diag": diag}, target)
        permuted = [diag[perm[i]] for i in range(6)]
        assert composed("Q", {"diag": permuted}, target) == base
        scaled = list(diag)
        scaled[at] = str(Fraction(diag[at]) * Fraction(square))
        assert composed("Q", {"diag": scaled}, target) == base

    check()


def gf2_gram_cases(n):
    entries = st.lists(st.integers(0, 1), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    return st.tuples(entries, st.permutations(range(n)), st.sampled_from(TARGETS["GF(2)"]))


@pytest.mark.parametrize("n", range(2, 7))
def test_gf2_gram_forms_keep_their_answers_under_permutation(n):
    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
    @given(gf2_gram_cases(n))
    def check(case):
        entries, perm, target = case
        slots = iter(entries)
        M = [[next(slots) if j >= i else 0 for j in range(n)] for i in range(n)]
        assume(QuadraticSpace(PrimeField(2), M).regularity() != "degenerate")
        base = answers("GF(2)", {"gram": M}, n, target)
        assert answers("GF(2)", {"gram": permuted_gram(M, perm)}, n, target) == base

    check()


def unimodular_image(M, shears, perm, p=None):
    """The coefficient matrix of q(Ux), U the product of the shears
    x_i += c x_j and then the permutation, for q with upper-triangular
    coefficient matrix M: S = U^t M U, diagonal S_ii, above it S_ij + S_ji.
    Entries are reduced mod p over GF(p)."""
    n = len(M)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in shears:
        # right multiplication by I + c E_ij adds c times column i to column j
        for r in range(n):
            U[r][j] += c * U[r][i]
    U = [[U[r][perm[k]] for k in range(n)] for r in range(n)]
    S = [[sum(U[a][i] * M[a][b] * U[b][j] for a in range(n) for b in range(n))
          for j in range(n)] for i in range(n)]
    out = [[S[i][i] if i == j else S[i][j] + S[j][i] if i < j else 0 for j in range(n)]
           for i in range(n)]
    return out if p is None else [[v % p for v in row] for row in out]


def gram_cases(field, n, p):
    diag = Q_ENTRIES if p is None else range(p)
    upper = (-1, 0, 1) if p is None else diag
    shear = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.sampled_from((1, -1, 2, -2)))
    return st.tuples(
        st.lists(st.sampled_from(diag), min_size=n, max_size=n),
        st.lists(st.sampled_from(upper), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        st.lists(shear.map(lambda s: (s[0], (s[0] + s[1]) % n, s[2])), min_size=1, max_size=3),
        st.permutations(range(n)),
        st.sampled_from(TARGETS[field]),
    )


@pytest.mark.parametrize("field", ["Q", "GF(3)", "GF(2)"])
@pytest.mark.parametrize("n", range(2, 6))
def test_gram_forms_keep_their_answers_under_unimodular_change_of_basis(field, n):
    p = None if field == "Q" else int(field[3:-1])

    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
    @given(gram_cases(field, n, p))
    def check(case):
        diag, upper, shears, perm, target = case
        slots = iter(upper)
        M = [[diag[i] if i == j else next(slots) if j > i else 0 for j in range(n)]
             for i in range(n)]
        F = QQ if p is None else PrimeField(p)
        assume(QuadraticSpace(F, [[F.parse(str(v)) for v in row] for row in M]).regularity()
               != "degenerate")
        base = answers(field, {"gram": M}, n, target)
        image = unimodular_image(M, shears, perm, p)
        assert answers(field, {"gram": image}, n, target) == base

    check()


def hyperbolic_cases(field, n):
    """An object and the same object with a hyperbolic plane added: <1, -1>
    after a diagonal, or the block [[0, 1], [0, 0]] after a GF(2) Gram
    form."""
    if field != "GF(2)":
        pool = Q_ENTRIES if field == "Q" else (1, 2)
        return st.lists(st.sampled_from(pool), min_size=n, max_size=n).map(
            lambda d: ({"diag": d}, {"diag": d + [1, -1]}))

    def with_plane(entries):
        slots = iter(entries)
        M = [[next(slots) if j >= i else 0 for j in range(n)] for i in range(n)]
        plus = [row + [0, 0] for row in M] + [[0] * n + [0, 1], [0] * (n + 2)]
        return {"gram": M}, {"gram": plus}

    size = n * (n + 1) // 2
    return st.lists(st.integers(0, 1), min_size=size, max_size=size).map(with_plane)


@pytest.mark.parametrize("field", ["Q", "GF(3)", "GF(2)"])
@pytest.mark.parametrize("n", range(2, 7))
def test_a_hyperbolic_plane_keeps_the_classes_and_the_center(field, n):
    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
    @given(hyperbolic_cases(field, n))
    def check(case):
        obj, plus = case
        if "gram" in obj:
            F = PrimeField(2)
            assume(QuadraticSpace(F, obj["gram"]).regularity() != "degenerate")
        assert invariants(field, plus) == invariants(field, obj)

    check()


def test_pair_sources_keep_the_fundamental_relation():
    symbol = st.tuples(st.sampled_from(SYMBOL_POOL), st.sampled_from(SYMBOL_POOL))

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(symbol, symbol)
    def check(s1, s2):
        Q1, Q2 = (QuaternionAlgebra(QQ, a, b) for a, b in (s1, s2))
        profile = profile_from_pair_clifford(clifford_of_pair(pair_on_quaternion_tensor(Q1, Q2)))
        assert profile.c_plus * profile.c_minus == BrauerClass(QQ, [s1, s2])

    check()


@pytest.mark.parametrize("field,entries", [("Q", (1, 1, 1, 1)), ("Q", (-1, 2, -3, 6)),
                                            ("Q", (5, 7, 35, 1)), ("GF(3)", (1, 1, 2, 2))],
                         ids=str)
def test_the_adjoint_pair_of_a_form_answers_as_the_form(field, entries):
    F = QQ if field == "Q" else PrimeField(3)
    q = QuadraticSpace.diagonal(F, [F.parse(str(v)) for v in entries])
    data = clifford_of_pair(pair_from_form(q)[0])
    profile = profile_from_pair_clifford(data)
    assert profile.c_plus == profile.c_minus == clifford_class_of_form(q)
    minus_one = F.parse("-1")
    for request in [{"kind": "first", "c": trivial_class(F), "t": "symplectic"},
                    {"kind": "first", "c": BrauerClass(F, [(minus_one, minus_one)]),
                     "t": "orthogonal"},
                    {"kind": "unitary", "S": EtaleQuadratic(F, F.one(), True),
                     "c0": trivial_class(F)}]:
        from_form, from_pair = construct_composition(q, request), construct_composition(data, request)
        assert (from_pair.degree, from_pair.tau_type) == (from_form.degree, from_form.tau_type)


def library_requests(F):
    """Every first-kind type and unitary S, with the classes of the targets
    above: trivial, Hamilton's and (2, 5) over Q, trivial off Q."""
    if F is QQ:
        classes = [BrauerClass(QQ, s) for s in ([], [(-1, -1)], [(2, 5)])]
        algebras = [quad_ext_info(QQ, Fraction(m)) for m in (-1, 2)]
    else:
        classes = [trivial_class(F)]
        algebras = [quad_ext_info(F, F.parse("2"))]
    algebras.append(EtaleQuadratic(F, F.one(), True))
    return ([{"kind": "first", "c": c, "t": t} for c in classes
             for t in ("orthogonal", "symplectic")]
            + [{"kind": "unitary", "S": S, "c0": c} for c in classes for S in algebras])


@pytest.mark.parametrize("field", ["Q", "GF(3)"])
@pytest.mark.parametrize("n", range(2, 9))
def test_four_hyperbolic_planes_add_four_to_every_degree(field, n):
    F = QQ if field == "Q" else PrimeField(3)
    planes = QuadraticSpace.diagonal(F, [F.parse(str(v)) for v in (1, -1) * 4])
    requests = library_requests(F)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(Q_ENTRIES if field == "Q" else (1, 2)), min_size=n, max_size=n))
    def check(diag):
        q = QuadraticSpace.diagonal(F, [F.parse(str(v)) for v in diag])
        prof, prof8 = profile_from_form(q), profile_from_form(q.orthogonal_sum(planes))
        for request in requests:
            case, case8 = classify(prof, request), classify(prof8, request)
            assert (case8.mcd.status, case8.mcd.case) == (case.mcd.status, case.mcd.case)
            if case.mcd.log2 is not None:
                assert case8.mcd.log2 == case.mcd.log2 + 4
            assert case8.bound.log2 == case.bound.log2 + 4
            assert case8.bound.equality == case.bound.equality
            for d in range(1, 17):
                got, want = case8.admissible(16 * d), case.admissible(d)
                assert (got["ok"], got["case"]) == (want["ok"], want["case"]), (request, d)

    check()


def rescaling_cases(n):
    return st.tuples(
        st.lists(st.sampled_from(Q_ENTRIES), min_size=n, max_size=n),
        st.lists(st.sampled_from((-1, 0, 0, 1)), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2),
        st.booleans(),
        st.sampled_from([s * v for v in (1, 2, 3, 5, 6, 7, 10) for s in (1, -1)]),
    )


@pytest.mark.parametrize("n", (2, 4, 6))
def test_rescaling_twists_the_clifford_class_by_the_discriminant_symbol(n):
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(rescaling_cases(n))
    def check(case):
        diag, upper, gram, lam = case
        slots = iter(upper)
        M = [[Fraction(diag[i]) if i == j else Fraction(next(slots)) if j > i and gram
              else Fraction(0) for j in range(n)] for i in range(n)]
        q = QuadraticSpace(QQ, M)
        assume(q.regularity() != "degenerate")
        twist = BrauerClass(QQ, [(Fraction(lam), q.center_datum())])
        assert clifford_class_of_form(q.scale(Fraction(lam))) == clifford_class_of_form(q) * twist

    check()



def _involutions():
    """(label, sigma): gamma on quaternion algebras and the transpose on
    M_2, over Q and GF(3)."""
    F3 = PrimeField(3)
    return [("gamma-Q", QuaternionAlgebra(QQ, Fraction(-1), Fraction(3)).gamma()),
            ("gamma-GF3", QuaternionAlgebra(F3, 1, 2).gamma()),
            ("transpose-Q", transpose_involution(MatrixAlgebra(FieldAlgebra(QQ), 2))),
            ("transpose-GF3", transpose_involution(MatrixAlgebra(FieldAlgebra(F3), 2)))]


INVOLUTIONS = _involutions()
SCALARS = {0: [s * v for v in (1, 2, 3) for s in (1, -1)], 3: [1, 2]}


@pytest.mark.parametrize("label,sigma", INVOLUTIONS, ids=[i[0] for i in INVOLUTIONS])
def test_twisting_by_a_nonzero_scalar_gives_sigma_back(label, sigma):
    A, F = sigma.A, sigma.A.F
    for lam in SCALARS[F.char]:
        c = F.from_int(lam)
        assert twist_involution(sigma, c * A.one(), F.inv(c) * A.one()).images == sigma.images


@pytest.mark.parametrize("label,sigma", INVOLUTIONS, ids=[i[0] for i in INVOLUTIONS])
def test_twisting_by_u_then_by_w_is_twisting_by_wu(label, sigma):
    A, F = sigma.A, sigma.A.F
    coords = st.lists(st.integers(-2, 2), min_size=A.dim, max_size=A.dim)

    def invertible(c):
        x = El(A, {i: F.from_int(v) for i, v in enumerate(c) if not F.is_zero(F.from_int(v))})
        return x, alg_inverse(A, x)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(coords, coords)
    def check(cu, cw):
        (u, uinv), (w, winv) = invertible(cu), invertible(cw)
        assume(uinv is not None and winv is not None)
        twice = twist_involution(twist_involution(sigma, u, uinv), w, winv)
        assert twice.images == twist_involution(sigma, w * u, uinv * winv).images

    check()


@pytest.mark.parametrize("field", ["Q", "GF(3)"])
@pytest.mark.parametrize("n", range(2, 5))
def test_rescaling_a_form_keeps_its_adjoint_involution(field, n):
    F = QQ if field == "Q" else PrimeField(3)
    entry = st.integers(-3, 3) if field == "Q" else st.integers(0, 2)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2), st.booleans())
    def check(upper, gram):
        slots = iter(upper)
        M = [[F.from_int(next(slots)) if j >= i else F.zero() for j in range(n)] for i in range(n)]
        if not gram:
            M = [[v if i == j else F.zero() for j, v in enumerate(row)] for i, row in enumerate(M)]
        q = QuadraticSpace(F, M)
        assume(q.regularity() == "regular")
        sigma = pair_from_form(q)[0].sigma
        for lam in SCALARS[F.char]:
            assert pair_from_form(q.scale(F.from_int(lam)))[0].sigma.images == sigma.images

    check()
