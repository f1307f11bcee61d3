"""Per-layer tracing for the traced run, from outside the program.

Tracer.install() wraps cliffcomp's public functions and methods in place:
a module-level function is replaced in every cliffcomp module that holds
it, so `from .linalg import rref` call sites are covered too, and a method
is replaced on the class that defines it.  Each wrapped call is a span
with a name, start, end, parent span and operation id.  Self time (a
span's duration minus the time its child spans cover) and call counts are
summed per name as the run goes.  Span records are kept in memory for the
coarse layers and written out at the end; the hot inner calls (products,
word rewriting, field arithmetic, Hilbert symbols, elimination) are only
summed, since recording each of their millions of calls would swamp both
the run and its memory.

Only the traced run installs the wrappers; the end-to-end metrics come
from untraced runs.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

FIELD_OPS = ("add", "sub", "mul", "div", "inv", "neg")
FIELD_CLASSES = ("Field", "RationalField", "PrimeField", "ExtField")
ALGEBRA_CLASSES = ("ExplicitAlgebra", "FieldAlgebra", "QuaternionAlgebra", "MatrixAlgebra",
                   "TensorAlgebra", "OppositeAlgebra", "ProductAlgebra")
QUADFORM_METHODS = ("q", "polar_matrix", "bq", "radical", "regularity", "scale", "orthogonal_sum",
                    "restrict", "diagonalization", "symplectic_basis", "arf_invariant",
                    "center_datum", "discriminant_algebra")

# Above these algebra dimensions the certificates check random samples
# instead of every basis pair (AlgebraHom.verify, Involution.verify).
HOM_FULL_DIM, INVOLUTION_FULL_DIM = 40, 32


def _hom_sampled(args, kwargs) -> bool:
    hom = args[0]
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "auto")
    return mode == "sample" or (mode == "auto" and hom.A.dim > HOM_FULL_DIM)


def _involution_sampled(args, kwargs) -> bool:
    inv = args[0]
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "auto")
    return mode == "sample" or (mode == "auto" and inv.A.dim > INVOLUTION_FULL_DIM)


def _rref_cells(args, kwargs) -> int:
    A = args[1]
    return len(A) * (len(A[0]) if A else 0)


def _one(args, kwargs) -> int:
    return 1


# (module, qualified name, span name, recorded[, extra count]).  Unrecorded
# names are summed only.  An extra count is (counter name, function of the
# call's arguments giving the increment).
TARGETS = [
    ("scalars", "trial_factor", "scalars.trial_factor", False),
    ("scalars", "hilbert_symbol", "scalars.hilbert_symbol", False),
    ("linalg", "rref", "linalg.rref", False, ("linalg.rref_cells", _rref_cells)),
    ("linalg", "solve", "linalg.solve", False),
    ("linalg", "SparseEchelon.insert", "linalg.echelon", False, ("linalg.echelon_rows", _one)),
    ("linalg", "SparseEchelon.reduce", "linalg.echelon", False),
    ("algebra", "Algebra.mul", "algebra.mul", False),
    ("algebra", "Involution.apply", "algebra.involution_apply", False),
    ("algebra", "center_basis", "algebra.center_basis", True),
    ("algebra", "corner_algebra", "algebra.corner_algebra", True),
    ("algebra", "AlgebraHom.verify", "cert.hom_verify", True,
     ("cert.hom_verify_sampled", _hom_sampled)),
    ("algebra", "Involution.verify", "cert.involution_verify", True,
     ("cert.involution_verify_sampled", _involution_sampled)),
    ("algebra", "Algebra.verify_associative", "cert.assoc_verify", True),
    ("clifford", "CliffordAlgebra.reduce_word", "clifford.reduce_word", False),
    ("clifford", "even_clifford", "clifford.even_clifford", True),
    ("clifford", "clifford_of_pair", "clifford.clifford_of_pair", True),
    ("clifford", "split_compare", "clifford.split_compare", True),
    ("qpair", "pair_from_form", "qpair", True),
    ("qpair", "pair_on_quaternion_tensor", "qpair", True),
    ("qpair", "pair_from_ell", "qpair", True),
    ("qpair", "QPair.verify", "qpair", True),
    ("brauer", "BrauerClass.__init__", "brauer.class", False),
    ("brauer", "RestrictedClass.__init__", "brauer.class", False),
    ("brauer", "clifford_class_of_form", "brauer.class", True),
    ("brauer", "even_clifford_classes", "brauer.class", True),
    ("brauer", "quaternion_symbol_of", "brauer.quaternion_symbol", True),
    ("mcd", "profile_from_form", "mcd.profile", True),
    ("mcd", "profile_from_pair_clifford", "mcd.profile", True),
    ("mcd", "mcd_first_kind", "mcd.formula", True),
    ("mcd", "mcd_unitary", "mcd.formula", True),
    ("mcd", "lower_bound_first_kind", "mcd.formula", True),
    ("mcd", "lower_bound_unitary", "mcd.formula", True),
    ("mcd", "admissible_degree", "mcd.formula", True),
    ("compose", "construct_first_kind", "compose.construct", True),
    ("compose", "construct_unitary", "compose.construct", True),
    ("compose", "extend_involution", "compose.extend_involution", True),
    ("compose", "CompositionWitness.verify", "cert.witness_verify", True),
    ("cli", "run", "cli", True),
] + [("quadform", f"QuadraticSpace.{m}", "quadform", False) for m in QUADFORM_METHODS]


class Tracer:
    def __init__(self):
        self.stack: list = []          # open spans: [child time, recorded index or parent's]
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.names: list = []
        self._name_ix: dict = {}
        self.records: list = []        # [name index, start, end, parent index, op id]
        self.op_id = -1
        self._patched: list = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name: str, recorded: bool, extra=None):
        stack, self_s, calls, counts, records = (
            self.stack, self.self_s, self.calls, self.counts, self.records)
        name_ix = self._name_ix.setdefault(name, len(self._name_ix))
        if name_ix == len(self.names):
            self.names.append(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if extra is not None:
                counts[extra[0]] += extra[1](args, kwargs)
            parent = stack[-1][1] if stack else -1
            if recorded:
                ix = len(records)
                records.append(None)
                frame = [0.0, ix]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if recorded:
                    records[ix] = [name_ix, t0, t1, parent, tracer.op_id]

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def operation(self, op_id: int, fn):
        """fn wrapped so that a call is one benchmark operation, the root span 'op'."""
        self.op_id = op_id
        return self._wrap(fn, "op", True)

    # -- installing -------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, fn, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("cliffcomp") and mod is not None:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._replace(mod, attr, new)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"cliffcomp.{m}") for m in
                ("scalars", "linalg", "algebra", "quadform", "qpair", "clifford", "brauer",
                 "mcd", "compose", "cli")}
        for modname, qual, name, recorded, *extra in TARGETS:
            mod = mods[modname]
            extra = extra[0] if extra else None
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self._wrap(cls.__dict__[meth], name, recorded, extra))
            else:
                fn = getattr(mod, qual)
                self._replace_function(fn, self._wrap(fn, name, recorded, extra))
        for cls_name in FIELD_CLASSES:
            cls = getattr(mods["scalars"], cls_name)
            for op in FIELD_OPS:
                if op in cls.__dict__:
                    self._replace(cls, op, self._count(cls.__dict__[op], "scalars.field_ops"))
        for cls in [getattr(mods["algebra"], c) for c in ALGEBRA_CLASSES] + [
                mods["clifford"].CliffordAlgebra]:
            self._replace(cls, "mul_bb", self._count(cls.__dict__["mul_bb"], "algebra.mul_bb_calls"))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        c, s, k = self.calls, self.self_s, self.counts
        return {
            "scalars.field_ops": (k["scalars.field_ops"], "count"),
            "scalars.trial_factor_calls": (c["scalars.trial_factor"], "count"),
            "scalars.trial_factor_s": (s["scalars.trial_factor"], "s"),
            "scalars.hilbert_symbol_calls": (c["scalars.hilbert_symbol"], "count"),
            "scalars.hilbert_symbol_s": (s["scalars.hilbert_symbol"], "s"),
            "linalg.rref_calls": (c["linalg.rref"], "count"),
            "linalg.rref_cells": (k["linalg.rref_cells"], "count"),
            "linalg.rref_s": (s["linalg.rref"], "s"),
            "linalg.solve_calls": (c["linalg.solve"], "count"),
            "linalg.echelon_rows": (k["linalg.echelon_rows"], "count"),
            "linalg.echelon_s": (s["linalg.echelon"], "s"),
            "algebra.mul_calls": (c["algebra.mul"], "count"),
            "algebra.mul_s": (s["algebra.mul"], "s"),
            "algebra.mul_bb_calls": (k["algebra.mul_bb_calls"], "count"),
            "algebra.center_basis_calls": (c["algebra.center_basis"], "count"),
            "algebra.center_basis_s": (s["algebra.center_basis"], "s"),
            "algebra.corner_algebra_calls": (c["algebra.corner_algebra"], "count"),
            "algebra.corner_algebra_s": (s["algebra.corner_algebra"], "s"),
            "algebra.involution_apply_calls": (c["algebra.involution_apply"], "count"),
            "algebra.involution_apply_s": (s["algebra.involution_apply"], "s"),
            "quadform.s": (s["quadform"], "s"),
            "qpair.s": (s["qpair"], "s"),
            "clifford.reduce_word_calls": (c["clifford.reduce_word"], "count"),
            "clifford.reduce_word_s": (s["clifford.reduce_word"], "s"),
            "clifford.even_clifford_s": (s["clifford.even_clifford"], "s"),
            "clifford.clifford_of_pair_calls": (c["clifford.clifford_of_pair"], "count"),
            "clifford.clifford_of_pair_s": (s["clifford.clifford_of_pair"], "s"),
            "clifford.split_compare_s": (s["clifford.split_compare"], "s"),
            "brauer.class_s": (s["brauer.class"], "s"),
            "brauer.quaternion_symbol_calls": (c["brauer.quaternion_symbol"], "count"),
            "brauer.quaternion_symbol_s": (s["brauer.quaternion_symbol"], "s"),
            "mcd.profile_s": (s["mcd.profile"], "s"),
            "mcd.formula_s": (s["mcd.formula"], "s"),
            "compose.construct_s": (s["compose.construct"], "s"),
            "compose.extend_involution_calls": (c["compose.extend_involution"], "count"),
            "compose.extend_involution_s": (s["compose.extend_involution"], "s"),
            "cert.hom_verify_calls": (c["cert.hom_verify"], "count"),
            "cert.hom_verify_sampled": (k["cert.hom_verify_sampled"], "count"),
            "cert.hom_verify_s": (s["cert.hom_verify"], "s"),
            "cert.involution_verify_calls": (c["cert.involution_verify"], "count"),
            "cert.involution_verify_sampled": (k["cert.involution_verify_sampled"], "count"),
            "cert.involution_verify_s": (s["cert.involution_verify"], "s"),
            "cert.assoc_verify_s": (s["cert.assoc_verify"], "s"),
            "cert.witness_verify_s": (s["cert.witness_verify"], "s"),
            "cli.self_s": (s["cli"], "s"),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names,
                       "spans": [r for r in self.records if r is not None],
                       "self_s": dict(self.self_s), "calls": dict(self.calls),
                       "counts": dict(self.counts)}, fh)
