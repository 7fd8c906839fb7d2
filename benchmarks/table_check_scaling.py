"""Time the character table's orthogonality check against n, per Gamma.

    python3 benchmarks/table_check_scaling.py [--src SRC] [--gamma NAME ...] [--max-n 4]
                                              [--repeats 3]

For each Gamma named by `--gamma` (repeatable; default cyclic:4 and klein4)
and n = 2..max-n, each repeat builds Gamma afresh (so its per-Gamma caches
start cold, as in one CLI run) and times `qtable.build_table` without and
with `check`, then `qtable.verify_table` alone on the unchecked table, whose
rows have never been paired (a checked table's rows keep their weighted
duals, so checking it again would time warm duals).  It prints one JSON row
per (Gamma, n): the median seconds and every repeat of each.  `--src` points
at the `src` directory of the checkout to measure (default: this
checkout's).  It exits 2 on an unknown Gamma, and 1 when a check raises, or
when a row's value on the identity class is not its degree from
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
    ap.add_argument("--gamma", action="append",
                    help="a built-in Gamma, e.g. cyclic:9; repeatable (default cyclic:4 and klein4)")
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from spinwreath.gammadata import builtin
    from spinwreath.partitions import MultiPartition
    from spinwreath.qtable import TableCheckError, build_table, char_degree, verify_table

    def timed(fn, *a, **kw):
        start = time.perf_counter()
        out = fn(*a, **kw)
        return out, round(time.perf_counter() - start, 4)

    names = args.gamma or ["cyclic:4", "klein4"]
    for name in names:
        try:
            builtin(name)
        except ValueError as exc:
            ap.error(str(exc))
    failed = False
    for name in names:
        for n in range(2, args.max_n + 1):
            runs = {"table": [], "checked": [], "verify": []}
            error = None
            for _ in range(args.repeats):
                gamma, _ = builtin(name)
                unchecked, secs = timed(build_table, gamma, n)
                runs["table"].append(secs)
                try:
                    table, secs = timed(build_table, gamma, n, check=True)
                    runs["checked"].append(secs)
                    _, secs = timed(verify_table, unchecked)
                    runs["verify"].append(secs)
                except TableCheckError as exc:
                    error = str(exc)
                    break
            row = {"gamma": name, "n": n, "repeats": args.repeats}
            if error is None:
                identity = MultiPartition.single(gamma.num_classes, 0, (1,) * n)
                degrees_ok = all(r.values.nums.get(identity)
                                 == gamma.on_axis(char_degree(r.lam, gamma) * r.values.den)[1]
                                 for r in table.rows)
                row.update({"rows": len(table.rows), "degrees_ok": degrees_ok})
                for key, secs in runs.items():
                    row[f"{key}_median_s"] = statistics.median(secs)
                    row[f"{key}_runs_s"] = secs
            else:
                degrees_ok = False
                row["check_error"] = error
            failed = failed or not degrees_ok
            print(json.dumps(row), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
