"""Minimal composition degrees.

An invariant profile condenses what the degree formulas need from a
quadratic pair or form: the degree n, the center Z of the (even) Clifford
algebra, its Brauer class data, and the type of the canonical involution.
The mcd functions dispatch on n mod 4 and the (Z, S) configuration and
return a status alongside the value: some configurations carry an exact
minimum, some only a value every composition degree must be a multiple
of, and two center configurations are reported as not covered (with the
split-field route still giving an exact answer for trivial algebras).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .brauer import (
    BrauerClass,
    clifford_class_of_form,
    even_clifford_classes,
    quaternion_symbol_of,
    trivial_class,
)
from .errors import UnsupportedInputError
from .scalars import EtaleQuadratic, Field, RationalField


ORTH, SYMP, UNIT = "orthogonal", "symplectic", "unitary"


def canonical_involution_type(n: int, char: int) -> str:
    """Type of the canonical involution on the (even) Clifford algebra."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n % 2 == 0:
        k = n // 2
        if k % 2 == 1:
            return UNIT
        if char == 2 or k % 4 == 2:
            return SYMP
        return ORTH
    if char == 2:
        # dimension 1 is the lone orthogonal exception
        return SYMP if n > 1 else ORTH
    return ORTH if n % 8 in (1, 7) else SYMP


@dataclass
class InvariantProfile:
    """Degree, center and class data of an extended quadratic pair."""

    F: Field
    n: int
    z_etale: EtaleQuadratic
    t_C: str
    source: str  # "form" | "pair"
    c_odd: Optional[BrauerClass] = None        # n odd: [C]
    c_plus: Optional[BrauerClass] = None       # n even, Z split
    c_minus: Optional[BrauerClass] = None
    c_base: Optional[BrauerClass] = None       # n even, Z field: [C] = res_Z(c_base)
    label: str = ""

    @property
    def z_split(self) -> bool:
        return self.z_etale.split

    @property
    def char(self) -> int:
        return self.F.char

    def deg_clifford(self) -> int:
        """Degree of C over its center (n even) or over F (n odd)."""
        if self.n % 2:
            return 1 << ((self.n - 1) // 2)
        return 1 << (self.n // 2 - 1)

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "degree_of_clifford": self.deg_clifford(),
            "canonical_involution_type": self.t_C,
            "source": self.source,
        }
        if self.n % 2 == 0:
            out["center"] = self.z_etale.to_json()
        if self.c_odd is not None:
            out["clifford_class"] = self.c_odd.to_json()
        if self.c_plus is not None:
            out["factor_classes"] = [self.c_plus.to_json(), self.c_minus.to_json()]
        if self.c_base is not None:
            if isinstance(self.F, RationalField):
                out["clifford_class_over_center"] = self.c_base.restrict(self.z_etale).to_json()
            else:
                # finite base: restriction cannot make a trivial class less so
                out["clifford_class_over_center"] = self.c_base.to_json()
        return out


def profile_from_form(q) -> InvariantProfile:
    """Invariant profile of the quadratic pair attached to a regular form,
    computed from classical form invariants (no Clifford construction)."""
    F = q.F
    n = q.n
    if n < 2:
        raise UnsupportedInputError("degree must be at least 2")
    if q.regularity() == "degenerate":
        raise UnsupportedInputError("profile needs a regular or semi-regular form")
    t_C = canonical_involution_type(n, F.char)
    if n % 2:
        et = EtaleQuadratic(F, F.one(), True)  # unused marker for odd degree
        return InvariantProfile(
            F, n, et, t_C, "form", c_odd=clifford_class_of_form(q), label=q.label
        )
    et = q.discriminant_algebra()
    if not isinstance(F, RationalField):
        triv = trivial_class(F)
        if et.split:
            return InvariantProfile(F, n, et, t_C, "form", c_plus=triv, c_minus=triv, label=q.label)
        return InvariantProfile(F, n, et, t_C, "form", c_base=triv, label=q.label)
    kind = even_clifford_classes(q)
    if kind[0] == "split":
        _, cp, cm = kind
        return InvariantProfile(F, n, et, t_C, "form", c_plus=cp, c_minus=cm, label=q.label)
    _, _, res = kind
    return InvariantProfile(F, n, et, t_C, "form", c_base=res.cls, label=q.label)


def profile_from_pair_clifford(data) -> InvariantProfile:
    """Invariant profile read off a constructed pair Clifford algebra.

    data: the bundle returned by clifford_of_pair.  Needs a degree-4 pair
    (the only nontrivial-algebra constructor at desk scale), whose center
    always splits with two degree-2 factors.
    """
    from math import isqrt

    from .algebra import corner_algebra

    C = data.C
    F = C.F
    n = isqrt(len(data.a_images))
    if n * n != len(data.a_images):
        raise UnsupportedInputError("underlying algebra dimension is not a square")
    t_C = canonical_involution_type(n, F.char)
    et = data.center_etale
    if not et.split:
        raise UnsupportedInputError("pair profiles expect a split Clifford center")
    e = data.center_idempotent
    Cp, _, _ = corner_algebra(C, e)
    Cm, _, _ = corner_algebra(C, C.one() - e)
    if Cp.dim == 1:
        cp = trivial_class(F)
        cm = trivial_class(F)
    elif Cp.dim == 4:
        cp = BrauerClass(F, [quaternion_symbol_of(Cp)])
        cm = BrauerClass(F, [quaternion_symbol_of(Cm)])
    else:
        raise UnsupportedInputError("factor class extraction implemented for degrees 1 and 2")
    return InvariantProfile(F, n, et, t_C, "pair", c_plus=cp, c_minus=cm, label=C.label)


# ---------------------------------------------------------------------------
# results

EXACT = "exact"
MULTIPLE = "multiple-only"
BOUND_ONLY = "lower-bound-only"
NOT_COVERED = "not-covered-by-paper"


@dataclass
class McdResult:
    status: str
    log2: Optional[int]
    case: str
    divisibility: bool
    note: str = ""

    @property
    def value(self) -> Optional[int]:
        return None if self.log2 is None else 1 << self.log2

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "log2": self.log2,
            "value": self.value,
            "case": self.case,
            "divisibility": self.divisibility,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# distance plumbing

def distance_over(F: Field, c1: BrauerClass, c2: BrauerClass, *fields: EtaleQuadratic) -> int:
    """d(res(c1), res(c2)) over the compositum of the given quadratic
    fields (over F itself when none is given); 0 off Q, where every class
    is trivial.

    The restrictions differ exactly when a place where c1 and c2 differ
    stays degree 1 upstairs, that is, splits completely in the compositum:
    in each of the fields, so a repeated field changes nothing.  A split
    field F x F splits every place, so it changes nothing either: the
    distance over a split S is the one over F, and over Z (x) S with S
    split it is the one over Z.
    """
    if not isinstance(F, RationalField):
        return 0
    return int(any(all(et.place_behavior(v) == "split" for et in fields)
                   for v in c1.support ^ c2.support))


def _d_split_pair(c: BrauerClass, cp: BrauerClass, cm: BrauerClass) -> int:
    """d over F x F between (c, c) and (cp, cm): log2 of an lcm of indices."""
    return max(c.distance(cp), c.distance(cm))


# ---------------------------------------------------------------------------
# first-kind dispatch

def mcd_first_kind(profile: InvariantProfile, c: BrauerClass, t: str) -> McdResult:
    """Minimal composition degree for first-kind targets of type t."""
    if t not in (ORTH, SYMP):
        raise ValueError("first-kind type must be orthogonal or symplectic")
    if c.F != profile.F:
        raise UnsupportedInputError("target class must live over the base field")
    F = profile.F
    n = profile.n
    # in characteristic 2 the two first-kind types coincide as target types
    eps = 0 if (profile.t_C == t or F.char == 2) else 1

    if n % 2:
        k = (n - 1) // 2
        d = c.distance(profile.c_odd)
        delta = 1 if (profile.c_odd == c and eps == 1) else 0
        return McdResult(EXACT, k + d + delta, "first-kind/odd", True)

    if n % 4 == 0:
        k = n // 4
        if profile.z_split:
            dmin = min(c.distance(profile.c_plus), c.distance(profile.c_minus))
            hit = profile.c_plus == c or profile.c_minus == c
            delta = 1 if (hit and eps == 1) else 0
            return McdResult(EXACT, 2 * k - 1 + dmin + delta, "first-kind/4k/split-center", False)
        d = distance_over(F, c, profile.c_base, profile.z_etale)
        delta = 1 if (d == 0 and eps == 1) else 0
        return McdResult(MULTIPLE, 2 * k + d + delta, "first-kind/4k/field-center", True)

    # n = 4k + 2
    k = (n - 2) // 4
    if profile.z_split:
        d = _d_split_pair(c, profile.c_plus, profile.c_minus)
    else:
        d = distance_over(F, c, profile.c_base, profile.z_etale)
    return McdResult(EXACT, 2 * k + 1 + d, "first-kind/4k+2", False)


# ---------------------------------------------------------------------------
# unitary dispatch

def mcd_unitary(profile: InvariantProfile, S: EtaleQuadratic, c0: BrauerClass) -> McdResult:
    """Minimal composition degree for unitary targets over S.

    c0 is the class over the base field whose restriction to S is the
    target class; over split S this means the pair (c0, c0).  Restricted
    classes are norm-trivial automatically (corestriction of a
    restriction is the square).
    """
    if S.field != profile.F or c0.F != profile.F:
        raise UnsupportedInputError("S and the class must live over the base field")
    F = profile.F
    n = profile.n

    if n % 2:
        k = (n - 1) // 2
        return McdResult(EXACT, k + distance_over(F, c0, profile.c_odd, S), "unitary/odd", True)

    if n % 4 == 0:
        k = n // 4
        if profile.z_split:
            dmin = min(distance_over(F, c0, profile.c_plus, S),
                       distance_over(F, c0, profile.c_minus, S))
            return McdResult(EXACT, 2 * k - 1 + dmin, "unitary/4k/split-center", False)
        # Z a field
        if not S.split and profile.z_etale.is_isomorphic(S):
            if profile.source == "form":
                d = distance_over(F, c0, profile.c_base, S)
                return McdResult(
                    EXACT,
                    2 * k + d,
                    "unitary/4k/center-matches-S/split-field-route",
                    False,
                    note="full-Clifford embedding route for trivial algebras",
                )
            return McdResult(
                NOT_COVERED,
                None,
                "unitary/4k/center-matches-S",
                False,
                note="center of C isomorphic to S as fields; covered only for trivial algebras",
            )
        d = distance_over(F, c0, profile.c_base, profile.z_etale, S)
        return McdResult(MULTIPLE, 2 * k + d, "unitary/4k/field-center", True)

    # n = 4k + 2
    k = (n - 2) // 4
    if profile.z_etale.is_isomorphic(S):
        if profile.z_split:
            d = _d_split_pair(c0, profile.c_plus, profile.c_minus)
        else:
            d = distance_over(F, c0, profile.c_base, S)
        # the opposite class coincides with the class itself at 2-torsion,
        # so the min over {C, op C} collapses
        return McdResult(EXACT, 2 * k + d, "unitary/4k+2/center-matches-S", False)
    if profile.z_split:
        return McdResult(
            NOT_COVERED,
            None,
            "unitary/4k+2/split-center-field-S",
            False,
            note="split center with a field S is not covered",
        )
    d = distance_over(F, c0, profile.c_base, profile.z_etale, S)
    return McdResult(MULTIPLE, 2 * k + 1 + d, "unitary/4k+2/field-center", True)


# ---------------------------------------------------------------------------
# lower bounds

@dataclass
class BoundReport:
    log2: int
    equality: bool
    case: str
    condition: str

    @property
    def value(self) -> int:
        return 1 << self.log2

    def to_json(self) -> dict:
        return {
            "log2": self.log2,
            "value": self.value,
            "equality": self.equality,
            "case": self.case,
            "condition": self.condition,
        }


def lower_bound_first_kind(profile: InvariantProfile, c: BrauerClass, t: str) -> BoundReport:
    n = profile.n
    # delta = 1 when the canonical involution is NOT of type t: the bound
    # must match the degree formulas (type t reachable directly keeps the
    # base bound; a type switch costs one factor of 2)
    delta = 0 if (profile.t_C == t or profile.F.char == 2) else 1
    if n % 2:
        k = (n - 1) // 2
        if delta == 0:
            eq = profile.c_odd == c
            cond = "class of C equals the target class"
        else:
            eq = c.distance(profile.c_odd) <= 1
            cond = "target class is C twisted by a quaternion class"
        return BoundReport(k + delta, eq, "bound/first-kind/odd", cond)
    if n % 4 == 0:
        k = n // 4
        if delta == 0:
            eq = profile.z_split and (profile.c_plus == c or profile.c_minus == c)
            cond = "center splits and a factor class equals the target"
        else:
            eq = profile.z_split and min(
                c.distance(profile.c_plus), c.distance(profile.c_minus)
            ) <= 1
            cond = "center splits and a factor class is a quaternion twist of the target"
        return BoundReport(2 * k - 1 + delta, eq, "bound/first-kind/4k", cond)
    k = (n - 2) // 4
    if profile.z_split:
        d = _d_split_pair(c, profile.c_plus, profile.c_minus)
    else:
        d = distance_over(profile.F, c, profile.c_base, profile.z_etale)
    return BoundReport(
        2 * k + 1, d == 0, "bound/first-kind/4k+2", "class of C over Z equals the restricted target"
    )


def lower_bound_unitary(profile: InvariantProfile, S: EtaleQuadratic, c0: BrauerClass) -> BoundReport:
    F = profile.F
    n = profile.n

    if n % 2:
        k = (n - 1) // 2
        eq = distance_over(F, c0, profile.c_odd, S) == 0
        return BoundReport(k, eq, "bound/unitary/odd", "restriction of C matches the target")
    if n % 4 == 0:
        k = n // 4
        eq = profile.z_split and (
            min(distance_over(F, c0, profile.c_plus, S),
                distance_over(F, c0, profile.c_minus, S)) == 0
        )
        return BoundReport(
            2 * k - 1, eq, "bound/unitary/4k", "center splits and a factor restricts to the target"
        )
    k = (n - 2) // 4
    if profile.z_etale.is_isomorphic(S):
        if profile.z_split:
            d = _d_split_pair(c0, profile.c_plus, profile.c_minus)
        else:
            d = distance_over(F, c0, profile.c_base, S)
        eq = d == 0
    else:
        eq = False
    return BoundReport(
        2 * k, eq, "bound/unitary/4k+2", "Z isomorphic to S and class of C equals the target"
    )


# ---------------------------------------------------------------------------
# admissible degrees (necessary arithmetic forms for any composition)

def _two_term_form(degree: int, unit: int, d1: int, d2: int, lo1: int, lo2: int) -> Optional[tuple]:
    """Solve degree = unit * (n1 * 2^d1 + n2 * 2^d2), n1 >= lo1, n2 >= lo2,
    n1 + n2 >= 1.  Returns (n1, n2) or None."""
    if degree % unit:
        return None
    rest = degree // unit
    n1 = lo1
    while n1 * (1 << d1) <= rest:
        rem = rest - n1 * (1 << d1)
        if rem % (1 << d2) == 0:
            n2 = rem >> d2
            if n2 >= lo2 and n1 + n2 >= 1:
                return (n1, n2)
        n1 += 1
    return None


def admissible_degree(profile: InvariantProfile, request: dict, degree: int) -> dict:
    """Check a candidate target degree against the arithmetic form every
    composition degree must have in the matching configuration.

    request: {"kind": "first", "c": BrauerClass, "t": str} or
             {"kind": "unitary", "S": EtaleQuadratic, "c0": BrauerClass}.
    Returns {"ok": bool, "case": str, "params": ...}.
    """
    if degree < 1:
        return {"ok": False, "case": "degenerate", "params": None}
    F = profile.F
    n = profile.n
    degC = profile.deg_clifford()

    if request["kind"] == "first":
        c, t = request["c"], request["t"]
        eps = 0 if (profile.t_C == t or F.char == 2) else 1
        if n % 2:
            d = c.distance(profile.c_odd)
            need_even = profile.c_odd == c and eps == 1
            unit = degC << d
            ok = degree % unit == 0 and (not need_even or (degree // unit) % 2 == 0)
            return {"ok": ok, "case": "cbound/Z-trivial", "params": {"unit": unit, "even": need_even}}
        if n % 4 == 0:
            if profile.z_split:
                d1 = c.distance(profile.c_plus)
                d2 = c.distance(profile.c_minus)
                sol = _two_term_form(degree, degC, d1, d2, 0, 0)
                return {"ok": sol is not None, "case": "cbound/split-center", "params": sol}
            d = distance_over(F, c, profile.c_base, profile.z_etale)
            need_even = d == 0 and eps == 1
            unit = degC << (d + 1)
            ok = degree % unit == 0 and (not need_even or (degree // unit) % 2 == 0)
            return {"ok": ok, "case": "cbound/field-center", "params": {"unit": unit, "even": need_even}}
        # 4k + 2: injectivity forces both-corner terms when the center splits
        if profile.z_split:
            d1 = c.distance(profile.c_plus)
            d2 = c.distance(profile.c_minus)
            sol = _two_term_form(degree, degC, d1, d2, 1, 1)
            return {"ok": sol is not None, "case": "cbound/split-center-injective", "params": sol}
        d = distance_over(F, c, profile.c_base, profile.z_etale)
        unit = degC << (d + 1)
        return {
            "ok": degree % unit == 0,
            "case": "cbound/field-center",
            "params": {"unit": unit},
        }

    S, c0 = request["S"], request["c0"]

    if n % 2:
        unit = degC << distance_over(F, c0, profile.c_odd, S)
        return {"ok": degree % unit == 0, "case": "cbound/Z-trivial", "params": {"unit": unit}}
    if profile.z_split:
        d1 = distance_over(F, c0, profile.c_plus, S)
        d2 = distance_over(F, c0, profile.c_minus, S)
        lo = 1 if n % 4 == 2 else 0
        if lo and S.split:
            # split target center: the two product factors can absorb one
            # corner each, so each corner needs a term in some factor rather
            # than both inside one
            ok = (
                _two_term_form(degree, degC, d1, d2, 1, 0) is not None
                and _two_term_form(degree, degC, d1, d2, 0, 1) is not None
            )
            return {"ok": ok, "case": "cbound/split-center-split-S", "params": (d1, d2)}
        sol = _two_term_form(degree, degC, d1, d2, lo, lo)
        case = "cbound/split-center" + ("-injective" if lo else "")
        return {"ok": sol is not None, "case": case, "params": sol}
    if not S.split and profile.z_etale.is_isomorphic(S):
        d = distance_over(F, c0, profile.c_base, S)
        lo = 1 if n % 4 == 0 else 0  # kind mismatch on centers forces both terms
        sol = _two_term_form(degree, degC, d, d, lo, lo)
        return {"ok": sol is not None, "case": "cbound/center-matches-S", "params": sol}
    d = distance_over(F, c0, profile.c_base, profile.z_etale, S)
    unit = degC << (d + 1)
    return {"ok": degree % unit == 0, "case": "cbound/compositum", "params": {"unit": unit}}


def dbound_min_degree(degC: int, cC: BrauerClass, target: BrauerClass) -> int:
    """Minimal degree of an algebra of the target class receiving a
    homomorphism from an algebra of degree degC and class cC."""
    return degC << cC.distance(target)
