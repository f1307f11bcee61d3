"""Minimal composition degrees.

An invariant profile condenses what the degree formulas need from a
quadratic pair or form: the degree n, the center Z of the (even) Clifford
algebra, its Brauer class data, and the type of the canonical involution.

classify_first and classify_unitary read the configuration of a request
once.  Its Case holds the formula, the lower bound and the form of every
composition degree; mcd_*, lower_bound_* and admissible_degree read it.
In log2, with k = n // 4 (n // 2 for odd n), g = deg C, d the distance
of the target from the class of C (over S, or Z S for another field Z,
for unitary targets; the min or max of d+ and d- over a split Z), e = 1
for a first-kind type switch and s = e where d = 0, else s = 0.  The
first row that matches a request applies:

  request, n, Z         formula                bound       degree form
  first, odd            exact k + d + s        k + e       g 2^d m, m even if s
  first, 4k, split      exact 2k - 1 + d + s   2k - 1 + e  g (m+ 2^d+ + m- 2^d-)
  first, 4k, field      multiple 2k + d + s    2k - 1 + e  g 2^(d+1) m, m even if s
  first, 4k+2, split    exact 2k + 1 + d       2k + 1      two terms, m+, m- >= 1
  first, 4k+2, field    exact 2k + 1 + d       2k + 1      g 2^(d+1) m
  unitary, odd          exact k + d            k           g 2^d m
  unitary, 4k, split    exact 2k - 1 + d       2k - 1      two terms
  unitary, 4k, Z = S    exact 2k + d (forms)   2k - 1      two terms at d, m+, m- >= 1
  unitary, 4k, field    multiple 2k + d        2k - 1      g 2^(d+1) m
  unitary, 4k+2, Z = S  exact 2k + d           2k          two terms (split S: a corner
                                                           in each factor)
  unitary, 4k+2, split  not covered (field S)  2k          two terms, m+, m- >= 1
  unitary, 4k+2, field  multiple 2k + 1 + d    2k          g 2^(d+1) m
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .brauer import (
    BrauerClass,
    clifford_class_of_form,
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

    def deg_clifford(self) -> int:
        """Degree of C over its center (n even) or over F (n odd)."""
        return 1 << ((self.n - 1) // 2)

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
    c = clifford_class_of_form(q)
    if et.split:
        # the adjoint algebra is split, so both factors have the class of C
        return InvariantProfile(F, n, et, t_C, "form", c_plus=c, c_minus=c, label=q.label)
    return InvariantProfile(F, n, et, t_C, "form", c_base=c, label=q.label)


def profile_from_pair_clifford(data) -> InvariantProfile:
    """Invariant profile read off a constructed pair Clifford algebra.

    data: the bundle returned by clifford_of_pair.  Needs a split center,
    read off C by center_structure, with corners of degree 1 or 2.
    """
    from math import isqrt

    from .algebra import center_structure, corner_algebra

    C = data.C
    F = C.F
    n = isqrt(len(data.a_images))
    if n * n != len(data.a_images):
        raise UnsupportedInputError("underlying algebra dimension is not a square")
    t_C = canonical_involution_type(n, F.char)
    et, e = center_structure(C)
    if not et.split:
        raise UnsupportedInputError("pair profiles expect a split Clifford center")
    Cp = corner_algebra(C, e)
    Cm = corner_algebra(C, C.one() - e)
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


# ---------------------------------------------------------------------------
# admissible forms (necessary arithmetic forms for any composition degree)

def _two_term_form(degree: int, unit: int, d1: int, d2: int, lo1: int, lo2: int) -> Optional[tuple]:
    """Solve degree = unit * (n1 * 2^d1 + n2 * 2^d2), n1 >= lo1, n2 >= lo2,
    n1 + n2 >= 1.  Returns (n1, n2) with n1 least, or None.  Only n1 <
    lo1 + 2^d2 is tried: divisibility by 2^d2 repeats with that period in
    n1, and n2 grows as n1 falls, so a solution at n1 gives one at n1 - 2^d2."""
    rest, r = divmod(degree, unit)
    if r:
        return None
    for n1 in range(lo1, min(rest >> d1, lo1 + (1 << d2) - 1) + 1):
        n2, r2 = divmod(rest - (n1 << d1), 1 << d2)
        if r2 == 0 and n2 >= lo2 and n1 + n2 >= 1:
            return (n1, n2)
    return None


@dataclass
class UnitForm:
    """degree = unit * m, with m even when `even` is set; a case without a
    parity condition has `even` None and reports none."""

    case: str
    unit: int
    even: Optional[bool] = None

    def at(self, degree: int) -> tuple:
        m, r = divmod(degree, self.unit)
        params = {"unit": self.unit} if self.even is None else {"unit": self.unit, "even": self.even}
        return r == 0 and not (self.even and m % 2), params


@dataclass
class TwoTermForm:
    """degree = unit * (n1 * 2^d1 + n2 * 2^d2) with n1, n2 >= lo: one term
    per corner of a split center (lo = 1 where injectivity needs both)."""

    case: str
    unit: int
    d1: int
    d2: int
    lo: int = 0

    def at(self, degree: int) -> tuple:
        sol = _two_term_form(degree, self.unit, self.d1, self.d2, self.lo, self.lo)
        return sol is not None, sol


class SplitPairForm(TwoTermForm):
    """Split center and split S in degree 2 mod 4: the two product factors
    can absorb one corner each, so each corner needs a term in some factor
    rather than both inside one."""

    def at(self, degree: int) -> tuple:
        ok = all(_two_term_form(degree, self.unit, self.d1, self.d2, lo, 1 - lo) is not None
                 for lo in (1, 0))
        return ok, (self.d1, self.d2)


# ---------------------------------------------------------------------------
# the case table

@dataclass
class Case:
    """One configuration of a request: its formula, its lower bound and
    the form every composition degree must have, side by side."""

    mcd: McdResult
    bound: BoundReport
    form: TwoTermForm | UnitForm

    def admissible(self, degree: int) -> dict:
        """Check a candidate target degree against the form."""
        if degree < 1:
            return {"ok": False, "case": "degenerate", "params": None}
        ok, params = self.form.at(degree)
        return {"ok": ok, "case": self.form.case, "params": params}


_ODD_CONDITIONS = ("class of C equals the target class",
                   "target class is C twisted by a quaternion class")
_4K_CONDITIONS = ("center splits and a factor class equals the target",
                  "center splits and a factor class is a quaternion twist of the target")


def classify_first(profile: InvariantProfile, c: BrauerClass, t: str) -> Case:
    """The case of a first-kind target of class c and type t."""
    if t not in (ORTH, SYMP):
        raise ValueError("first-kind type must be orthogonal or symplectic")
    if c.F != profile.F:
        raise UnsupportedInputError("target class must live over the base field")
    n, unit = profile.n, profile.deg_clifford()
    if n % 2:
        d = c.distance(profile.c_odd)
    elif profile.z_split:
        d1, d2 = c.distance(profile.c_plus), c.distance(profile.c_minus)
        d = min(d1, d2) if n % 4 == 0 else max(d1, d2)
    else:
        d = distance_over(profile.F, c, profile.c_base, profile.z_etale)
    # a type switch costs one factor of 2 where the classes agree; in
    # characteristic 2 the two first-kind types coincide as target types
    eps = int(profile.t_C != t and profile.F.char != 2)
    even = d == 0 and eps == 1
    k = n // 2 if n % 2 else n // 4
    if n % 2:
        return Case(McdResult(EXACT, k + d + even, "first-kind/odd", True),
                    BoundReport(k + eps, d <= eps, "bound/first-kind/odd", _ODD_CONDITIONS[eps]),
                    UnitForm("cbound/Z-trivial", unit << d, even))
    if n % 4 == 2:
        # injectivity forces a term through each corner of a split center
        form = (TwoTermForm("cbound/split-center-injective", unit, d1, d2, 1) if profile.z_split
                else UnitForm("cbound/field-center", unit << (d + 1)))
        return Case(McdResult(EXACT, 2 * k + 1 + d, "first-kind/4k+2", False),
                    BoundReport(2 * k + 1, d == 0, "bound/first-kind/4k+2",
                                "class of C over Z equals the restricted target"), form)
    bound = BoundReport(2 * k - 1 + eps, profile.z_split and d <= eps, "bound/first-kind/4k",
                        _4K_CONDITIONS[eps])
    if profile.z_split:
        return Case(McdResult(EXACT, 2 * k - 1 + d + even, "first-kind/4k/split-center", False),
                    bound, TwoTermForm("cbound/split-center", unit, d1, d2))
    return Case(McdResult(MULTIPLE, 2 * k + d + even, "first-kind/4k/field-center", True),
                bound, UnitForm("cbound/field-center", unit << (d + 1), even))


def classify_unitary(profile: InvariantProfile, S: EtaleQuadratic, c0: BrauerClass) -> Case:
    """The case of a unitary target over S.

    c0 is the class over the base field whose restriction to S is the
    target class; over split S this means the pair (c0, c0).  Restricted
    classes are norm-trivial automatically (corestriction of a
    restriction is the square).
    """
    if S.field != profile.F or c0.F != profile.F:
        raise UnsupportedInputError("S and the class must live over the base field")
    n, unit, Z = profile.n, profile.deg_clifford(), profile.z_etale

    def dist(cls, *fields):
        return distance_over(profile.F, c0, cls, *fields, S)

    if n % 2:
        k, d = n // 2, dist(profile.c_odd)
        return Case(McdResult(EXACT, k + d, "unitary/odd", True),
                    BoundReport(k, d == 0, "bound/unitary/odd", "restriction of C matches the target"),
                    UnitForm("cbound/Z-trivial", unit << d))
    # a field Z is never isomorphic to a split S, nor a split Z to a field S
    matches = Z.is_isomorphic(S)
    if profile.z_split:
        d1, d2 = dist(profile.c_plus), dist(profile.c_minus)
        d = min(d1, d2) if n % 4 == 0 else max(d1, d2)
    else:  # over Z S, which is S when Z matches S
        d = dist(profile.c_base, Z)
    k = n // 4
    if n % 4 == 0:
        bound = BoundReport(2 * k - 1, profile.z_split and d == 0, "bound/unitary/4k",
                            "center splits and a factor restricts to the target")
        if profile.z_split:
            return Case(McdResult(EXACT, 2 * k - 1 + d, "unitary/4k/split-center", False),
                        bound, TwoTermForm("cbound/split-center", unit, d1, d2))
        if not matches:
            return Case(McdResult(MULTIPLE, 2 * k + d, "unitary/4k/field-center", True),
                        bound, UnitForm("cbound/compositum", unit << (d + 1)))
        mcd = (McdResult(EXACT, 2 * k + d, "unitary/4k/center-matches-S/split-field-route", False,
                         note="full-Clifford embedding route for trivial algebras")
               if profile.source == "form" else
               McdResult(NOT_COVERED, None, "unitary/4k/center-matches-S", False,
                         note="center of C isomorphic to S as fields; covered only for trivial algebras"))
        # kind mismatch on centers forces both terms
        return Case(mcd, bound, TwoTermForm("cbound/center-matches-S", unit, d, d, 1))
    bound = BoundReport(2 * k, matches and d == 0, "bound/unitary/4k+2",
                        "Z isomorphic to S and class of C equals the target")
    if matches:
        # the opposite class coincides with the class itself at 2-torsion,
        # so the min over {C, op C} collapses
        form = (SplitPairForm("cbound/split-center-split-S", unit, d1, d2) if profile.z_split
                else TwoTermForm("cbound/center-matches-S", unit, d, d))
        return Case(McdResult(EXACT, 2 * k + d, "unitary/4k+2/center-matches-S", False), bound, form)
    if profile.z_split:
        return Case(McdResult(NOT_COVERED, None, "unitary/4k+2/split-center-field-S", False,
                              note="split center with a field S is not covered"),
                    bound, TwoTermForm("cbound/split-center-injective", unit, d1, d2, 1))
    return Case(McdResult(MULTIPLE, 2 * k + 1 + d, "unitary/4k+2/field-center", True),
                bound, UnitForm("cbound/compositum", unit << (d + 1)))


def classify(profile: InvariantProfile, request: dict) -> Case:
    """request: {"kind": "first", "c": BrauerClass, "t": str} or
    {"kind": "unitary", "S": EtaleQuadratic, "c0": BrauerClass}."""
    if request["kind"] == "first":
        return classify_first(profile, request["c"], request["t"])
    return classify_unitary(profile, request["S"], request["c0"])


# ---------------------------------------------------------------------------
# readers of the case record

def mcd_first_kind(profile: InvariantProfile, c: BrauerClass, t: str) -> McdResult:
    """Minimal composition degree for first-kind targets of type t."""
    return classify_first(profile, c, t).mcd


def mcd_unitary(profile: InvariantProfile, S: EtaleQuadratic, c0: BrauerClass) -> McdResult:
    """Minimal composition degree for unitary targets over S."""
    return classify_unitary(profile, S, c0).mcd


def lower_bound_first_kind(profile: InvariantProfile, c: BrauerClass, t: str) -> BoundReport:
    return classify_first(profile, c, t).bound


def lower_bound_unitary(profile: InvariantProfile, S: EtaleQuadratic, c0: BrauerClass) -> BoundReport:
    return classify_unitary(profile, S, c0).bound


def admissible_degree(profile: InvariantProfile, request: dict, degree: int) -> dict:
    """Check a candidate target degree against the arithmetic form every
    composition degree must have in the request's configuration.
    Returns {"ok": bool, "case": str, "params": ...}."""
    return classify(profile, request).admissible(degree)


def dbound_min_degree(degC: int, cC: BrauerClass, target: BrauerClass) -> int:
    """Minimal degree of an algebra of the target class receiving a
    homomorphism from an algebra of degree degC and class cC."""
    return degC << cC.distance(target)
