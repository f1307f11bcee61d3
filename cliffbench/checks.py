"""Output checks, each computed apart from cliffcomp or from a property
the method must have.  A check raises CheckFailed on a wrong output.

Nothing here compares against a saved copy of earlier output.
"""

from __future__ import annotations

import math

import qmath

ORTH, SYMP, UNIT = "orthogonal", "symplectic", "unitary"
MCD_STATUSES = ("exact", "multiple-only", "lower-bound-only", "not-covered-by-paper")
NOT_COVERED = "not-covered-by-paper"


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def is_power_of_two(v) -> bool:
    return isinstance(v, int) and v > 0 and v & (v - 1) == 0


# ---------------------------------------------------------------------------
# query: invariants

def base_classes(out: dict) -> list:
    """The Brauer classes over the base field in an invariants output."""
    return ([out["clifford_class"]] if "clifford_class" in out else []) + out.get("factor_classes", [])


def check_degree(form: dict, out: dict) -> None:
    n = form["n"]
    require(out["n"] == n, f"n is {out['n']}, not {n}")
    want = 1 << ((n - 1) // 2)
    require(out["degree_of_clifford"] == want,
            f"degree_of_clifford {out['degree_of_clifford']}, want 2^floor((n-1)/2) = {want}")


def check_support_parity(out: dict) -> None:
    """Hilbert reciprocity: a class over Q is ramified at an even number of places."""
    for cls in base_classes(out):
        require(len(cls["support"]) % 2 == 0, f"support {cls['support']} has odd size")


def check_finite_trivial(out: dict) -> None:
    """The Brauer group of a finite field is trivial."""
    classes = base_classes(out) + ([out["clifford_class_over_center"]]
                                   if "clifford_class_over_center" in out else [])
    for cls in classes:
        require(cls["trivial"] is True and not cls["support"], f"nontrivial class {cls} over a finite field")


def rational_diagonal(form: dict) -> list:
    """A diagonalisation of a form over Q: its entries, or the LDL^T diagonal."""
    if "diag" in form["obj"]:
        return form["obj"]["diag"]
    return qmath.ldl_diagonal(qmath.coeff_matrix(form["obj"]))


def _places(support: list) -> set:
    return {qmath.REAL if v == qmath.REAL else int(v) for v in support}


def check_rational_support(form: dict, out: dict) -> None:
    """Supports against the Clifford invariant from Hilbert symbols.

    Odd n: [C0(q)]; even n with split center: both factors carry [C(q)];
    even n with a field center Z = Q(sqrt disc): the restriction to Z keeps
    the places of [C(q)] that split in Z.
    """
    want = qmath.clifford_support(rational_diagonal(form))
    n = form["n"]
    if n % 2:
        got = _places(out["clifford_class"]["support"])
        require(got == want, f"[C0] support {sorted(map(str, got))}, want {sorted(map(str, want))}")
        return
    if out["center"]["split"]:
        for cls in out["factor_classes"]:
            got = _places(cls["support"])
            require(got == want, f"factor support {sorted(map(str, got))}, want {sorted(map(str, want))}")
        return
    disc = qmath.signed_discriminant("Q", qmath.coeff_matrix(form["obj"]))
    want = {v for v in want if qmath.is_local_square(disc, v)}
    got = _places(out["clifford_class_over_center"]["support"])
    require(got == want, f"support over Z {sorted(map(str, got))}, want {sorted(map(str, want))}")


def check_center(form: dict, out: dict) -> None:
    """Even n: the center datum is the signed discriminant (-1)^(n/2) det up
    to squares (the Arf invariant in characteristic 2), and the center is
    split exactly when that datum is a square (Arf invariant 0)."""
    if form["n"] % 2:
        return
    field, M = form["field"], qmath.coeff_matrix(form["obj"])
    center = out["center"]
    if field == "GF(2)":
        arf = qmath.arf_gf2(M)
        require(int(center["datum"]) == arf, f"center datum {center['datum']}, Arf invariant {arf}")
        require(center["split"] == (arf == 0), f"split flag {center['split']} with Arf invariant {arf}")
        return
    disc = qmath.signed_discriminant(field, M)
    if field == "Q":
        got = qmath.squarefree(center["datum"])
        require(got == qmath.squarefree(disc), f"center datum {center['datum']} vs discriminant {disc}")
        square = got == 1
    else:
        p = qmath.char_of(field)
        got = qmath.legendre(int(center["datum"]), p)
        require(got == qmath.legendre(disc, p), f"center datum {center['datum']} vs discriminant {disc}")
        square = got == 1
    require(center["split"] == square, f"split flag {center['split']} for datum {center['datum']}")


def check_invariants(form: dict, out: dict) -> None:
    check_degree(form, out)
    check_center(form, out)
    check_support_parity(out)
    if form["field"] == "Q":
        check_rational_support(form, out)
    else:
        check_finite_trivial(out)


# ---------------------------------------------------------------------------
# query: mcd and bound

def check_mcd(out: dict, not_covered: bool) -> None:
    """A known status, exit 3 exactly when not covered, values powers of two."""
    require(out["status"] in MCD_STATUSES, f"unknown status {out['status']!r}")
    require((out["status"] == NOT_COVERED) == not_covered,
            f"status {out['status']} with exit {'3' if not_covered else '0'}")
    if out["value"] is not None:
        require(is_power_of_two(out["value"]), f"mcd value {out['value']} is not a power of two")


def check_bound(out: dict) -> None:
    """The lower bound is a power of two and does not exceed the mcd value."""
    low, formula = out["lower_bound"]["value"], out["formula"]["value"]
    require(is_power_of_two(low), f"lower bound {low} is not a power of two")
    if formula is not None:
        require(is_power_of_two(formula), f"mcd value {formula} is not a power of two")
        require(low <= formula, f"lower bound {low} exceeds the mcd value {formula}")


# ---------------------------------------------------------------------------
# witness

def check_witness_degree(bundle: dict, mcd: dict) -> None:
    """The degree is the mcd value when it is exact, a multiple otherwise."""
    deg = bundle["witness"]["degree"]
    if mcd["status"] == "exact":
        require(deg == mcd["value"], f"degree {deg}, exact mcd {mcd['value']}")
    else:
        require(deg % mcd["value"] == 0, f"degree {deg} is not a multiple of {mcd['value']}")


def check_witness_bound(bundle: dict, lower: int) -> None:
    deg = bundle["witness"]["degree"]
    require(deg >= lower, f"degree {deg} below the lower bound {lower}")


def check_witness_type(form: dict, target: dict, bundle: dict) -> None:
    """The involution has the requested type (in characteristic 2 the two
    first-kind types coincide as target types)."""
    require(bundle["verified"] is True, "bundle not marked verified")
    got = bundle["witness"]["involution_type"]
    if target["type"] == UNIT:
        require(got == UNIT, f"unitary request gave {got}")
    elif form["field"] == "GF(2)":
        require(got in (ORTH, SYMP), f"first-kind request gave {got}")
    else:
        require(got == target["type"], f"{target['type']} request gave {got}")


def check_replay(bundle: dict, rc: int, out) -> None:
    """verify accepts the bundle and reports its degree and type."""
    require(rc == 0 and out is not None and out.get("verified") is True, f"verify exited {rc}")
    w = bundle["witness"]
    require(out["degree"] == w["degree"] and out["involution_type"] == w["involution_type"],
            f"verify reports {out['degree']}/{out['involution_type']}, "
            f"bundle has {w['degree']}/{w['involution_type']}")


# ---------------------------------------------------------------------------
# structure

def canonical_type(n: int) -> str:
    """Type of the canonical involution on C0 of an n-dimensional form, char != 2."""
    return {1: ORTH, 7: ORTH, 3: SYMP, 5: SYMP, 2: UNIT, 6: UNIT, 4: SYMP, 0: ORTH}[n % 8]


def type_from_sym_dim(n: int, dim: int, sym: int):
    """The involution type that dim Sym(C0, tau) = sym indicates, or None.

    Odd n: C0 is central simple of degree d; Sym has dimension d(d+1)/2
    (orthogonal) or d(d-1)/2 (symplectic).  Even n: C0 has a quadratic
    center and dim 2 d^2; a unitary involution fixes half of it, one of the
    first kind d(d+1) or d(d-1).
    """
    if n % 2:
        d = math.isqrt(dim)
        table = {d * (d + 1) // 2: ORTH, d * (d - 1) // 2: SYMP}
    else:
        d = math.isqrt(dim // 2)
        table = {dim // 2: UNIT, d * (d + 1): ORTH, d * (d - 1): SYMP}
    return table.get(sym)


def check_clifford_dims(n: int, C_dim: int, C0_dim: int) -> None:
    require(C_dim == 1 << n and C0_dim == 1 << (n - 1),
            f"dim C = {C_dim}, dim C0 = {C0_dim} for n = {n}")


def check_center_dim(n: int, center_dim: int) -> None:
    want = 1 if n % 2 else 2
    require(center_dim == want, f"center of C0 has dim {center_dim}, want {want} for n = {n}")


def check_involution_type(n: int, C0_dim: int, sym_dim: int) -> None:
    got = type_from_sym_dim(n, C0_dim, sym_dim)
    want = canonical_type(n)
    require(got == want, f"dim Sym = {sym_dim} gives {got}, n = {n} wants {want}")


def check_pair_dim(n: int, C_dim: int) -> None:
    require(C_dim == 1 << (n - 1), f"pair Clifford algebra has dim {C_dim}, want 2^{n - 1}")
