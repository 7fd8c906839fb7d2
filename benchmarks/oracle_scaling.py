"""Time the brute-force spin-class oracle against n on trivial, klein4, cyclic:3, quaternion8 and cyclic:5.

    python3 benchmarks/oracle_scaling.py [--src SRC] [--max-n 6] [--repeats 3]

For trivial at n = 1..6, klein4, cyclic:3 and quaternion8 at n = 1..3 and
cyclic:5 (phi(5) = 4 numerators per value) at n = 1..2, each capped at
--max-n, each repeat builds Gamma afresh and times the `enumerate` column:
building the group law `spingroup.SpinLaw`, then
`spingroup.enumerate_classes_bruteforce` on it.  The law's tables are timed
with the enumeration, as in earlier runs, where the enumeration built them
itself, so rows stay comparable.  Then it times the whole `verify oracle`
suite (its own law, the class enumeration checked against the theory-side
classes, then the basic spin traces).  It prints one JSON row per (Gamma,
n): the element count (the sum of the class sizes), the class count, and
the median seconds and every repeat of each.  `--src` points at the `src` directory of
the checkout to measure (default: this checkout's).  It exits 1 when the
suite's `split_classification` result, the verdict of
`suites.oracle_class_report`, or its `basic_spin_trace` result is not a
pass, or when the class sizes do not add up to the group order
2^(n+1) n! |Gamma|^n, so a timing is never reported for a wrong result.
"""

import argparse
import json
import os
import statistics
import sys
import time
from math import factorial

CASES = (("trivial", 6), ("klein4", 3), ("cyclic:3", 3), ("quaternion8", 3), ("cyclic:5", 2))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from spinwreath.gammadata import VirtualChar, builtin
    from spinwreath.spingroup import SpinLaw, enumerate_classes_bruteforce
    from spinwreath.suites import SUITES

    failed = False
    for name, top in CASES:
        for n in range(1, min(top, args.max_n) + 1):
            runs = {"enumerate": [], "verify_oracle": []}
            for _ in range(args.repeats):
                gamma, cg = builtin(name)
                start = time.perf_counter()
                classes = enumerate_classes_bruteforce(SpinLaw(cg, n))
                runs["enumerate"].append(round(time.perf_counter() - start, 4))
                gamma, cg = builtin(name)
                start = time.perf_counter()
                results = SUITES["oracle"](gamma, cg, VirtualChar.trivial(gamma),
                                           argparse.Namespace(n=n))
                runs["verify_oracle"].append(round(time.perf_counter() - start, 4))
            elements = sum(c.size for c in classes)
            statuses = {r["relation"]: r["status"] for r in results}
            ok = (elements == 2 ** (n + 1) * factorial(n) * cg.order**n
                  and statuses == {"split_classification": "pass",
                                   "basic_spin_trace": "pass"})
            row = {"gamma": name, "n": n, "repeats": args.repeats, "elements": elements,
                   "classes": len(classes), "ok": ok}
            for key, secs in runs.items():
                row[f"{key}_median_s"] = statistics.median(secs)
                row[f"{key}_runs_s"] = secs
            failed = failed or not ok
            print(json.dumps(row), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
