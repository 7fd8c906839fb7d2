"""Time the Fock pairing against n: the character table and the isometry.

    python3 benchmarks/pairing_scaling.py [--src SRC] [--gamma SPEC] [--max-n 5] [--repeats 3]

For a built-in Gamma (default quaternion8, whose values are all rational;
cyclic:k for k >= 3 has irrational ones) at the standard weight and
n = 2..max-n, it times `qtable.build_table` and the `verify isometry` suite,
each from a fresh context per repeat, and prints one JSON row per n: the
median seconds and every repeat of each, and the number of monomial pairs
each valued by normal ordering (the size of its `FockContext._inner_cache`).
`--src` points at the `src` directory of the checkout to measure (default:
this checkout's).  It exits 1 when the isometry does not pass, or when a
row's value on the identity class is not its degree from
`qtable.char_degree`, so a timing is never reported for a wrong result.
"""

import argparse
import json
import os
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    ap.add_argument("--gamma", default="quaternion8")
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from spinwreath import suites
    from spinwreath.gammadata import VirtualChar, builtin
    from spinwreath.partitions import MultiPartition
    from spinwreath.qtable import build_table, char_degree
    from spinwreath.vertex import TwistContext

    # the isometry suite builds its own FockContext; record it to read its cache
    contexts = []

    class RecordedContext(suites.FockContext):
        def __init__(self, *a):
            super().__init__(*a)
            contexts.append(self)

    suites.FockContext = RecordedContext
    gamma, _ = builtin(args.gamma)
    xi = VirtualChar.trivial(gamma)
    failed = False
    for n in range(2, args.max_n + 1):
        table_runs, iso_runs = [], []
        for _ in range(args.repeats):
            tctx = TwistContext(gamma, xi)
            start = time.perf_counter()
            table = build_table(gamma, n, tctx=tctx)
            table_runs.append(round(time.perf_counter() - start, 4))
            start = time.perf_counter()
            status = suites.SUITES["isometry"](gamma, None, xi, argparse.Namespace(n=n))[-1]["status"]
            iso_runs.append(round(time.perf_counter() - start, 4))
        identity = MultiPartition.single(gamma.num_classes, 0, (1,) * n)
        degrees_ok = all(row.values.get(identity) == char_degree(row.lam, gamma)
                         for row in table.rows)
        failed = failed or status != "pass" or not degrees_ok
        print(json.dumps({"gamma": args.gamma, "n": n, "rows": len(table.rows),
                          "degrees_ok": degrees_ok, "isometry": status,
                          "repeats": args.repeats,
                          "table_median_s": statistics.median(table_runs),
                          "table_runs_s": table_runs,
                          "table_pairs": len(tctx.fock._inner_cache),
                          "isometry_median_s": statistics.median(iso_runs),
                          "isometry_runs_s": iso_runs,
                          "isometry_pairs": len(contexts[-1]._inner_cache)}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
