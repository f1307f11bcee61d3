"""Profile the quadratic-pair Clifford construction on small inputs.

Sweeps regular forms over small finite fields, runs the pair construction
on each, and records its saturation degree, max(3, n / 2 + 1), and
whether the result matched the even Clifford algebra of the underlying
form.  A quick way to spot inputs where the sandwich relations
fail to certify: the exit status is 1 when any form fails.

Usage: python3 scripts/pair_saturation.py [--max-dim 4] [--limit 6] [--json]
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cliffcomp.clifford import clifford_of_pair, split_compare
from cliffcomp.errors import SaturationError
from cliffcomp.qpair import pair_from_form
from cliffcomp.quadform import all_small_forms
from cliffcomp.scalars import PrimeField


def sweep(p: int, max_dim: int, limit: int):
    # the construction itself only accepts even degree
    rows = []
    F = PrimeField(p)
    for n in range(2, max_dim + 1, 2):
        taken = 0
        for q in all_small_forms(F, n):
            if q.regularity() != "regular":
                continue
            if taken >= limit:
                break
            taken += 1
            coeffs = q.to_json()["coeffs"]
            pair, aux = pair_from_form(q)
            try:
                data = clifford_of_pair(pair)
            except SaturationError as exc:
                rows.append({"p": p, "n": n, "form": coeffs,
                             "outcome": f"saturation: {exc}"})
                continue
            split_compare(data, aux)
            rows.append({
                "p": p,
                "n": n,
                "form": coeffs,
                "saturation_degree": data.saturation_degree,
                "dim": data.C.dim,
                "outcome": "certified",
            })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-dim", type=int, default=4)
    ap.add_argument("--limit", type=int, default=6,
                    help="forms per (field, dimension) bucket")
    ap.add_argument("--json", action="store_true", help="emit JSON lines")
    args = ap.parse_args()
    rows = []
    for p in (2, 3):
        rows.extend(sweep(p, args.max_dim if p == 2 else 2, args.limit))
    bad = sum(1 for r in rows if r["outcome"] != "certified")
    if args.json:
        for row in rows:
            print(json.dumps(row))
        return 1 if bad else 0
    tallies = Counter()
    for row in rows:
        if row["outcome"] != "certified":
            print(f"FAILED  p={row['p']} n={row['n']} {row['form']}: "
                  f"{row['outcome']}")
            continue
        tallies[(row["p"], row["n"], row["saturation_degree"])] += 1
    for (p, n, deg), count in sorted(tallies.items()):
        print(f"p={p}  n={n}  saturation={deg}  forms={count}")
    print(f"total forms: {len(rows)}, certified: {len(rows) - bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
