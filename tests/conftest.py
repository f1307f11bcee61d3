"""Shared helpers: independent center probes, and the homomorphism
extension by a breadth-first closure of its own."""

from cliffcomp.algebra import AlgebraHom, El
from cliffcomp.errors import CertificationError, UnsupportedInputError
from cliffcomp.linalg import SparseEchelon, apply_cols, inverse
from cliffcomp.scalars import quad_ext_info


def _center_elements(A, cb):
    return [El(A, v) for v in cb]


def central_etale_split(A, cb) -> bool:
    """Split flag of a dimension-2 center with the given basis."""
    from cliffcomp.linalg import rref, solve

    F = A.F
    assert len(cb) == 2
    one = A.one().c
    w = None
    for x in _center_elements(A, cb):
        if not rref(F, [one]).contains(x.c):
            w = x
            break
    assert w is not None, "center basis degenerate"
    w2 = (w * w).c
    cols = [w.c, one]
    sol = solve(F, cols, w2)
    assert sol is not None, "central element fails a quadratic equation"
    alpha, beta = sol.get(0, F.zero()), sol.get(1, F.zero())
    if F.char != 2:
        quarter = F.inv(F.from_int(4))
        m = F.add(beta, F.mul(F.mul(alpha, alpha), quarter))
        return quad_ext_info(F, m).split
    assert not F.is_zero(alpha), "center not etale"
    return quad_ext_info(F, F.div(beta, F.mul(alpha, alpha))).split


def ref_hom_on_generators(A, B, gen_indices, gen_images, label="phi"):
    """The map on the generating basis elements gen_indices, extended to
    all of A through its own breadth-first closure of generator words and
    its own echelon, as hom_on_generators did before it read the words
    that A.generators() proves."""
    F = A.F
    ech = SparseEchelon(F)
    span_A: list = []
    span_elems_B: list = []
    one_A, one_B = A.one(), B.one()
    frontier = [(one_A, one_B)]
    ech.insert(one_A.c)
    span_A.append(one_A.c)
    span_elems_B.append(one_B)
    gen_images = [gim if isinstance(gim, El) else El(B, gim) for gim in gen_images]
    while frontier and len(span_A) < A.dim:
        new_frontier = []
        for xa, xb in frontier:
            for gi, gim in zip(gen_indices, gen_images):
                ya = A.mul(xa, A.basis_el(gi))
                if ech.insert(ya.c) is None:
                    continue
                yb = B.mul(xb, gim)
                span_A.append(ya.c)
                span_elems_B.append(yb)
                new_frontier.append((ya, yb))
        frontier = new_frontier
    if len(span_A) != A.dim:
        raise UnsupportedInputError(f"{label}: generators span only {len(span_A)} of {A.dim}")
    Sinv = inverse(F, span_A)
    if Sinv is None:
        raise CertificationError("span solve failed")
    span_B = [y.c for y in span_elems_B]
    images = [apply_cols(F, span_B, coeffs) for coeffs in Sinv]
    return AlgebraHom(A, B, images, label=label)


def recording_homs(monkeypatch, module):
    """Replace module.hom_on_generators with a wrapper that records each
    call as (A, B, generator images, returned hom)."""
    calls = []
    real = module.hom_on_generators

    def recording(A, B, gen_images, label="phi"):
        hom = real(A, B, gen_images, label)
        calls.append((A, B, list(gen_images), hom))
        return hom

    monkeypatch.setattr(module, "hom_on_generators", recording)
    return calls
