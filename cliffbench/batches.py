"""Seeded operation batches for the three workloads.

Inputs are drawn here from the seed alone, with the benchmark's own
regularity test (qmath), never with cliffcomp's random_form or
all_small_forms, so a change to the program cannot change a batch.
Each batch is one round; a run repeats whole rounds.
"""

from __future__ import annotations

import json
import random

import qmath

FIELDS = ("Q", "GF(3)", "GF(2)")

Q_DIAG_POOL = (1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 11)
# Gram forms over Q: n - 1 coefficients +-1 off the diagonal, at seeded
# places.  The number of off-diagonal terms drives the cost of Clifford
# products and of elimination over Q, so it is held fixed; drawn freely it
# moved single operations by a factor of 4 between seeds.
Q_GRAM_DIAG_POOL = (1, -1, 2, -2, 3, -3)

# Fixed input of the kept fault: its symbol entries pass 2^63 along the
# splitting recursion, and cliffcomp refuses to factor them.
FAULT_FORM = {"field": "Q", "shape": "diag", "n": 8, "obj": {"diag": [7, 11, 3, 1, 5, 5, 1, 7]}}

TRIVIAL, HAMILTON = None, [[-1, -1]]
FIRST_KIND_TARGETS = [
    {"type": t, "class": c} for t in ("orthogonal", "symplectic") for c in (TRIVIAL, HAMILTON)
]
UNITARY_TARGETS = [{"type": "unitary", "s": s} for s in ({"datum": -1}, {"datum": 2}, {"split": True})]
MCD_TARGETS = FIRST_KIND_TARGETS + UNITARY_TARGETS


def shapes(field: str) -> tuple:
    # diagonal forms are never regular in characteristic 2
    return ("gram",) if field == "GF(2)" else ("diag", "gram")


def _draw_matrix(rng: random.Random, field: str, shape: str, n: int) -> list:
    if field == "Q":
        diag = [rng.choice(Q_DIAG_POOL if shape == "diag" else Q_GRAM_DIAG_POOL) for _ in range(n)]
    else:
        p = qmath.char_of(field)
        diag = [rng.randrange(1 if shape == "diag" else 0, p) for _ in range(n)]
    M = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if shape == "gram":
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if field == "Q":
            for i, j in rng.sample(slots, n - 1):
                M[i][j] = rng.choice((-1, 1))
        else:
            for i, j in slots:
                M[i][j] = rng.randrange(p)
    return M


def acceptable(field: str, shape: str, M: list) -> bool:
    """Regular, a true Gram shape if asked for, and inside the factor bound.

    Over Q the symbol entries of the splitting recursion on the LDL^T
    diagonal must stay below 2^63: beyond it cliffcomp fails with
    InputTooLargeError on some seeds only, so such draws are left out and
    the fault is kept once, on FAULT_FORM.
    """
    n = len(M)
    if shape == "gram" and not any(M[i][j] for i in range(n) for j in range(i + 1, n)):
        return False
    if not qmath.is_regular(field, M):
        return False
    if field != "Q":
        return True
    diag = qmath.ldl_diagonal(M)
    return diag is not None and qmath.splitting_recursion_height(diag) < qmath.FACTOR_BOUND


def small_clifford_support(M: list) -> bool:
    """Is the Clifford invariant of a form over Q ramified only at inf and
    primes up to 13?  brauer.quaternion_model finds a symbol for every class
    ramified only there, but gave up on the classes ramified at 241 and at
    409 that seeded Gram forms produced (see CHANGES.md)."""
    return all(v == qmath.REAL or v <= 13 for v in qmath.clifford_support(qmath.ldl_diagonal(M)))


def draw_form(rng: random.Random, field: str, shape: str, n: int, witness: bool = False) -> dict:
    """A form that passes acceptable(); for witness, over Q, also one with a
    small Clifford support."""
    for _ in range(10000):
        M = _draw_matrix(rng, field, shape, n)
        if not acceptable(field, shape, M):
            continue
        if witness and field == "Q" and not small_clifford_support(M):
            continue
        obj = {"diag": [M[i][i] for i in range(n)]} if shape == "diag" else {"gram": M}
        return {"field": field, "shape": shape, "n": n, "obj": obj}
    raise RuntimeError(f"no acceptable {shape} form of dimension {n} over {field}")


def cli_args(command: str, form: dict, target: dict | None = None) -> list:
    argv = [command, "--field", form["field"], "--object", json.dumps(form["obj"])]
    if target is not None:
        argv += ["--type", target["type"]]
        if target.get("class") is not None:
            argv += ["--class", json.dumps(target["class"])]
        if target.get("s") is not None:
            argv += ["--s", json.dumps(target["s"])]
    return argv


# ---------------------------------------------------------------------------
# query: the formula path, no algebra is built

QUERY_DIMS = range(2, 9)
QUERY_FORMS_PER_CELL = 4


def query_forms(seed: int) -> list:
    rng = random.Random(seed)
    return [draw_form(rng, field, shape, n)
            for field in FIELDS for shape in shapes(field) for n in QUERY_DIMS
            for _ in range(QUERY_FORMS_PER_CELL)]


def query_batch(seed: int) -> list:
    """One round: invariants, then mcd and bound for every target, per form."""
    ops = []
    for form in query_forms(seed) + [FAULT_FORM]:
        ops.append({"cmd": "invariants", "form": form})
        for target in MCD_TARGETS:
            ops.append({"cmd": "mcd", "form": form, "target": target})
            ops.append({"cmd": "bound", "form": form, "target": target})
    return ops


def quaternion_symbols(rng: random.Random, field: str) -> list:
    """Two quaternion symbols [a, b] with invertible parameters."""
    if field == "Q":
        pool = (-1, 2, -2, 3, -3, 5, -5, 7)
        return [[rng.choice(pool), rng.choice(pool)] for _ in range(2)]
    if field == "GF(2)":  # [a, b): b must be invertible, a is free
        return [[rng.randrange(2), 1] for _ in range(2)]
    p = qmath.char_of(field)
    return [[rng.randrange(1, p), rng.randrange(1, p)] for _ in range(2)]


def center_splits(form: dict) -> bool:
    """Is the discriminant algebra of an even-dimensional form split?"""
    M = qmath.coeff_matrix(form["obj"])
    if form["field"] == "GF(2)":
        return qmath.arf_gf2(M) == 0
    disc = qmath.signed_discriminant(form["field"], M)
    if form["field"] == "Q":
        return qmath.is_rational_square(disc)
    return qmath.legendre(disc, qmath.char_of(form["field"])) == 1


def s_is_field(field: str, s: dict) -> bool:
    if s.get("split"):
        return False
    m = s["datum"]
    if field == "Q":
        return not qmath.is_rational_square(m)
    p = qmath.char_of(field)
    if p == 2:  # Artin-Schreier: x^2 + x + m is irreducible over GF(2) iff m is odd
        return m % 2 == 1
    return qmath.legendre(m, p) != 1


# ---------------------------------------------------------------------------
# witness: construction and certification

# Sources per field, shape and n.  The small ones cost milliseconds, so
# there are more of them: every operation weighs the same in the geometric
# mean, and their cost differs most between draws.
WITNESS_SOURCES = {2: 4, 3: 4, 4: 2, 5: 2}
# Over Q the sources stop at n = 5: from n = 6 on, even forms with a field
# center are rescaled before construction, and there compose fails with
# InputTooLargeError on some seeds only, in a fraction of a second, where a
# fix would take seconds.
WITNESS_FINITE_EXTRA = [("GF(3)", "diag", 6, 2), ("GF(3)", "diag", 7, 1)]
# First-kind requests on forms over Q from n = 4 on take 0.1 s or 3.5 s
# depending on the entries (the rescaling route and the involution search
# in extend_involution); a few of them moved a round's total by 20 %
# between seeds.  Those sources get unitary requests only, and the
# first-kind construction is measured on Q up to n = 3 and on the finite
# fields up to n = 7.
FIRST_KIND_Q_MAX_N = 3


def _unitary_target(form: dict, k: int) -> dict:
    """The k-th unitary target, moved to the split S where it is not a field
    (cliffcomp reads every datum as a field, so GF(2) gets no datum 2) or
    where the formulas do not cover a field S (n = 2 mod 4, split center)."""
    target = UNITARY_TARGETS[k % len(UNITARY_TARGETS)]
    if "datum" in target["s"] and not s_is_field(form["field"], target["s"]):
        return UNITARY_TARGETS[-1]
    if form["n"] % 4 == 2 and center_splits(form) and s_is_field(form["field"], target["s"]):
        return UNITARY_TARGETS[-1]
    return target


def witness_sources(seed: int) -> list:
    """(source, requests) pairs.  Targets are assigned by position, not by
    the seed, so that only the entries of the forms vary between seeds."""
    rng = random.Random(seed)
    cells = [(field, shape, n, 2) for field in FIELDS for shape in shapes(field)
             for n, count in WITNESS_SOURCES.items() for _ in range(count)]
    out = []
    for k, (field, shape, n, nreq) in enumerate(cells + WITNESS_FINITE_EXTRA):
        form = draw_form(rng, field, shape, n, witness=True)
        if field == "Q" and n > FIRST_KIND_Q_MAX_N:
            requests = [_unitary_target(form, k), _unitary_target(form, k + 1)]
        else:
            requests = [FIRST_KIND_TARGETS[k % len(FIRST_KIND_TARGETS)], _unitary_target(form, k)]
        out.append((form, requests[:nreq]))
    for target in (FIRST_KIND_TARGETS[3], UNITARY_TARGETS[2]):
        pair = {"field": "Q", "shape": "quaternion_pair", "n": 4,
                "obj": {"quaternion_pair": quaternion_symbols(rng, "Q")}}
        out.append((pair, [target]))
    return out


def witness_batch(seed: int) -> list:
    """One round: compose for every request, each followed by verify of its bundle."""
    ops = []
    for form, requests in witness_sources(seed):
        for target in requests:
            ops.append({"cmd": "compose", "form": form, "target": target})
            ops.append({"cmd": "verify", "form": form, "target": target})
    return ops


# ---------------------------------------------------------------------------
# structure: Clifford construction and exact elimination, as library calls

# Forms per field, shape and n, for the even Clifford algebra and for the
# pair construction; more of the cheap small ones, as in witness.
STRUCTURE_FORMS = {2: 4, 3: 4, 4: 4, 5: 4, 6: 3, 7: 3}
PAIR_FORMS = {2: 4, 4: 3}
TENSOR_PAIRS = 3
# Left out as too slow or too uneven for a run repeated many times: the
# center of C0 for a Gram form over Q at n = 7 (seconds by dense
# elimination, more on denser forms), and the pair construction on Gram
# forms over Q at n = 4 (about 1.4 s or 3.4 s depending on the entries).
STRUCTURE_SKIP = {("even", "Q", "gram", 7), ("pair", "Q", "gram", 4)}


def structure_batch(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for field in FIELDS:
        for shape in shapes(field):
            for cmd, counts in (("even", STRUCTURE_FORMS), ("pair", PAIR_FORMS)):
                for n, count in counts.items():
                    if (cmd, field, shape, n) in STRUCTURE_SKIP:
                        continue
                    for _ in range(count):
                        ops.append({"cmd": cmd, "form": draw_form(rng, field, shape, n)})
    for field in FIELDS:
        for _ in range(TENSOR_PAIRS):
            symbols = quaternion_symbols(rng, field)
            ops.append({"cmd": "tensor", "form": {"field": field, "shape": "quaternion_pair", "n": 4,
                                                  "obj": {"quaternion_pair": symbols}}})
    return ops


BATCHES = {"query": query_batch, "witness": witness_batch, "structure": structure_batch}
