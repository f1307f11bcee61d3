"""Shared helpers: independent center probes."""

from cliffcomp.algebra import El
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
