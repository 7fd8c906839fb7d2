"""Time the Fock pairing against n: the character table and the isometry.

    python3 benchmarks/pairing_scaling.py [--src SRC] [--gamma SPEC] [--max-n 5] [--repeats 3]

For a built-in Gamma (default quaternion8, whose values are all rational;
cyclic:k for k >= 3 has irrational ones) at the standard weight and
n = 2..max-n, it times `qtable.build_table` and the `verify isometry` suite,
each from a fresh context per repeat, and prints one JSON row per n: the
median seconds and every repeat of each, and the number of monomial pairs
each valued by normal ordering (the size of its `FockContext._inner_cache`).
`rows` counts the table's rows and `rows_paired` those built and paired
through the vertex route, one per orbit of Gamma's linear characters; the
others are filled by the twist (`qtable.build_table`).
Where `mckay_xi` finds a McKay weight, the row's `mckay_isometry` field holds
the same for the isometry at that weight, whose Gram matrix is not diagonal,
so a monomial can have more than one partner; it is null elsewhere.
`--src` points at the `src` directory of the checkout to measure (default:
this checkout's).  It exits 2 on an unknown Gamma, before any timing, and 1
when an isometry does not pass, or when a row's value on the identity class
is not its degree from `qtable.char_degree`, so a timing is never reported
for a wrong result.
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
    from spinwreath import qtable, suites
    from spinwreath.gammadata import VirtualChar, builtin, mckay_xi
    from spinwreath.partitions import MultiPartition
    from spinwreath.qtable import build_table, char_degree
    from spinwreath.vertex import TwistContext

    try:
        gamma, _ = builtin(args.gamma)
    except ValueError as exc:
        ap.error(str(exc))
    # the isometry suite builds its own FockContext; record it to read its cache
    contexts = []

    class RecordedContext(suites.FockContext):
        def __init__(self, *a):
            super().__init__(*a)
            contexts.append(self)

    suites.FockContext = RecordedContext
    # count the X_lambda vectors a table builds: one per paired row
    paired = []
    x_lambda_vector = qtable.x_lambda_vector
    qtable.x_lambda_vector = lambda tctx, lam: paired.append(lam) or x_lambda_vector(tctx, lam)
    xi = VirtualChar.trivial(gamma)
    try:
        mckay = mckay_xi(gamma)
    except ValueError:  # no 2-dimensional defining character
        mckay = None

    def isometry(weight, n, runs):
        """One run of the isometry suite, its seconds appended to runs: its
        status and the number of monomial pairs it valued."""
        start = time.perf_counter()
        status = suites.SUITES["isometry"](gamma, None, weight, argparse.Namespace(n=n))[-1]["status"]
        runs.append(round(time.perf_counter() - start, 4))
        return status, len(contexts[-1]._inner_cache)

    failed = False
    for n in range(2, args.max_n + 1):
        table_runs, iso_runs, mckay_runs = [], [], []
        for _ in range(args.repeats):
            tctx = TwistContext(gamma, xi)
            paired.clear()
            start = time.perf_counter()
            table = build_table(gamma, n, tctx=tctx)
            table_runs.append(round(time.perf_counter() - start, 4))
            status, iso_pairs = isometry(xi, n, iso_runs)
            if mckay is not None:
                mckay_status, mckay_pairs = isometry(mckay, n, mckay_runs)
        identity = MultiPartition.single(gamma.num_classes, 0, (1,) * n)
        degrees_ok = all(row.values.value(identity) == char_degree(row.lam, gamma)
                         for row in table.rows)
        mckay_row = None if mckay is None else {
            "isometry": mckay_status, "median_s": statistics.median(mckay_runs),
            "runs_s": mckay_runs, "pairs": mckay_pairs}
        failed = (failed or status != "pass" or not degrees_ok
                  or (mckay is not None and mckay_status != "pass"))
        print(json.dumps({"gamma": args.gamma, "n": n, "rows": len(table.rows),
                          "rows_paired": len(paired),
                          "degrees_ok": degrees_ok, "isometry": status,
                          "repeats": args.repeats,
                          "table_median_s": statistics.median(table_runs),
                          "table_runs_s": table_runs,
                          "table_pairs": len(tctx.fock._inner_cache),
                          "isometry_median_s": statistics.median(iso_runs),
                          "isometry_runs_s": iso_runs,
                          "isometry_pairs": iso_pairs,
                          "mckay_isometry": mckay_row}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
