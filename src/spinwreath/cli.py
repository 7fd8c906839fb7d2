"""Command-line front end: classes, chartable, verify, mckay.

Exit codes: 0 success, 2 usage or configuration error, 3 verification
failure.  All output is exact; documents are deterministic for a fixed
configuration.  Flags override an optional JSON config file, which
overrides defaults; the SPINWREATH_LOG environment variable sets the log
level and nothing else.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .classfun import SpinClassFun, ch, induction_product, sigma_rho, weighted_inner
from .fock import FockContext, FockVector, annihilate, create, inner
from .gammadata import (ConcreteGroup, GammaData, GammaValidationError,
                        VirtualChar, builtin, cartan_matrix, load_gamma, mckay_xi)
from .partitions import big_z, multipartitions
from .qtable import TableCheckError, build_table
from .scalars import Cyc
from .spingroup import (basic_spin_trace, enumerate_classes_bruteforce,
                        representative_of_type, SignedType, theory_classes)
from .vertex import (TwistContext, affine_relation_check, clifford_check,
                     ope_check, prim_commutator_check, x_parity_check)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    pass


def _resolve_gamma(spec: str) -> Tuple[GammaData, Optional[ConcreteGroup]]:
    if spec.startswith("@"):
        path = spec[1:]
        try:
            with open(path, "rb") as fh:
                return load_gamma(fh.read()), None
        except OSError as exc:
            raise ConfigError(f"cannot read Gamma file {path}: {exc}") from exc
        except GammaValidationError as exc:
            raise ConfigError(f"invalid Gamma document {path}: {exc}") from exc
    try:
        gdata, cg = builtin(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return gdata, cg


def _resolve_xi(gamma: GammaData, spec: str) -> VirtualChar:
    if spec == "standard":
        return VirtualChar.trivial(gamma)
    if spec == "mckay":
        try:
            return mckay_xi(gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        coeffs = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(f"xi must be 'standard', 'mckay' or a comma list: {spec!r}") from exc
    if len(coeffs) != gamma.num_classes:
        raise ConfigError(f"xi needs {gamma.num_classes} coefficients")
    return VirtualChar(coeffs)


def _emit(doc: dict, fmt: str, out: Optional[str], csv_render=None) -> None:
    if fmt == "csv":
        if csv_render is None:
            raise ConfigError("csv output is not available for this command")
        text = csv_render(doc)
    elif fmt == "pretty":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- classes ---------------------------------------------------------------------


def cmd_classes(args) -> int:
    gamma, cg = _resolve_gamma(args.gamma)
    n = args.n
    cnames = gamma.class_names
    entries = []
    for tc in theory_classes(gamma, n):
        entries.append({
            "rho": {"plus": tc.rho_plus.to_doc(cnames), "minus": tc.rho_minus.to_doc(cnames)},
            "parity": "odd" if tc.parity else "even",
            "split": tc.split,
            "centralizer": tc.cover_centralizer,
            "class_size": tc.cover_class_size,
        })
    doc = {"gamma": gamma.name, "n": n, "classes": entries,
           "even_split_pairs": sum(1 for t in theory_classes(gamma, n) if t.split and t.parity == 0),
           "odd_split_pairs": sum(1 for t in theory_classes(gamma, n) if t.split and t.parity == 1)}
    status = EXIT_OK
    if args.oracle:
        if cg is None:
            raise ConfigError("--oracle needs a built-in Gamma with a multiplication table")
        report = oracle_class_report(cg, gamma, n)
        doc["oracle"] = report
        if report["status"] != "ok":
            status = EXIT_VERIFY
    _emit(doc, args.format, args.out)
    return status


def oracle_class_report(cg: ConcreteGroup, gamma: GammaData, n: int) -> dict:
    """Brute-force class data against the split-classification and centralizer
    formula; exact equality or a witness."""
    classes = enumerate_classes_bruteforce(cg, n)
    zetas = gamma.centralizer_orders
    mismatches = []
    by_type: Dict[Tuple, List] = {}
    for c in classes:
        from .spingroup import is_split

        expect_split = is_split(c.signed_type)
        if expect_split != c.split:
            mismatches.append({"kind": "split", "type": repr(c.signed_type)})
        if c.split and c.parity == 0:
            z = big_z(c.signed_type.rho_plus, zetas)
            expect = 2 ** (1 + c.signed_type.rho_plus.length) * z
            if expect != c.centralizer_order:
                mismatches.append({"kind": "centralizer", "type": repr(c.signed_type),
                                   "expected": expect, "got": c.centralizer_order})
        key = (c.signed_type.rho_plus, c.signed_type.rho_minus)
        by_type.setdefault(key, []).append(c)
    even_split_types = sum(1 for key, cs in by_type.items()
                           if cs[0].split and cs[0].parity == 0)
    odd_split_types = sum(1 for key, cs in by_type.items()
                          if cs[0].split and cs[0].parity == 1)
    theory = theory_classes(gamma, n)
    for tc in theory:
        found = by_type.get((tc.rho_plus, tc.rho_minus))
        if not found:
            mismatches.append({"kind": "missing_type", "type": str(tc.rho_plus.parts)})
            continue
        sizes = sum(c.size for c in found)
        if sizes != tc.cover_class_size * (2 if tc.split else 1):
            mismatches.append({"kind": "class_size", "type": str(tc.rho_plus.parts),
                               "expected": tc.cover_class_size, "got": sizes})
    return {"status": "ok" if not mismatches else "mismatch",
            "classes": len(classes),
            "even_split_pairs": even_split_types,
            "odd_split_pairs": odd_split_types,
            "mismatches": mismatches}


# -- chartable -------------------------------------------------------------------


def _chartable_csv(doc: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_ALL)
    cols = [json.dumps(c, separators=(",", ":")) for c in doc["columns"]]
    w.writerow(["lambda", "type", "degree"] + cols)
    for row in doc["rows"]:
        rendered = [Cyc.from_doc(v).pretty() for v in row["values"]]
        w.writerow([json.dumps(row["lambda"], separators=(",", ":")),
                    row["type"], row["degree"]] + rendered)
    return buf.getvalue()


def cmd_chartable(args) -> int:
    gamma, _ = _resolve_gamma(args.gamma)
    try:
        table = build_table(gamma, args.n, check=args.check)
    except TableCheckError as exc:
        _emit({"gamma": gamma.name, "n": args.n, "status": "check_failed",
               "witness": str(exc)}, "json", args.out)
        return EXIT_VERIFY
    _emit(table.to_doc(), args.format, args.out, csv_render=_chartable_csv)
    return EXIT_OK


# -- mckay -----------------------------------------------------------------------


def identify_affine_type(cartan: List[List[int]]) -> Optional[str]:
    """Match a weighted Cartan matrix against the stored affine Dynkin shapes."""
    k = len(cartan)
    if any(cartan[i][i] != 2 for i in range(k)):
        return None
    if k == 2 and cartan[0][1] == cartan[1][0] == -2:
        return "A1~"
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            if cartan[i][j] != cartan[j][i]:
                return None
            if cartan[i][j] == -1:
                edges.append((i, j))
            elif cartan[i][j] != 0:
                return None
    degree = [0] * k
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    if k >= 3 and all(d == 2 for d in degree) and len(edges) == k and _connected(k, edges):
        return f"A{k - 1}~"
    if k == 5 and sorted(degree) == [1, 1, 1, 1, 4]:
        return "D4~"
    return None


def _connected(k: int, edges: List[Tuple[int, int]]) -> bool:
    adj: Dict[int, List[int]] = {i: [] for i in range(k)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for t in adj[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen) == k


def cmd_mckay(args) -> int:
    gamma, _ = _resolve_gamma(args.gamma)
    try:
        xi = mckay_xi(gamma, args.pi_index)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cartan = cartan_matrix(gamma, xi)
    affine = identify_affine_type(cartan)
    doc = {"gamma": gamma.name, "xi": "mckay", "cartan": cartan,
           "affine_type": affine if affine else "unrecognized"}
    _emit(doc, args.format, args.out)
    return EXIT_OK if affine else EXIT_VERIFY


# -- verify ----------------------------------------------------------------------


def _verify_heisenberg(gamma: GammaData, xi: VirtualChar, degree: int, nmax: int) -> List[dict]:
    ctx = FockContext(gamma, xi)
    k = gamma.num_classes
    monos = []
    for d in range(degree + 1):
        for mp in multipartitions(d, k, "OP"):
            factors = []
            for i, part in enumerate(mp.parts):
                factors.extend((n, i) for n in part)
            monos.append(tuple(sorted(factors)))
    results = []
    basis = [[1 if t == i else 0 for t in range(k)] for i in range(k)]
    odd = list(range(1, nmax + 1, 2))
    for i in range(k):
        for j in range(k):
            gram = ctx.gram[i][j]
            for m in odd:
                for n in odd:
                    for mono in monos:
                        v = FockVector(ctx, {mono: Cyc.rational(1)})
                        lhs = annihilate(create(v, n, basis[j]), m, basis[i]) \
                            - create(annihilate(v, m, basis[i]), n, basis[j])
                        expect = v.scale(Fraction(m, 2) * gram) if m == n \
                            else FockVector.zero(ctx)
                        if lhs != expect:
                            return [{"relation": "heisenberg", "status": "fail",
                                     "params": {"i": i, "j": j, "m": m, "n": -n,
                                                "mono": list(map(list, mono))}}]
                        both = annihilate(annihilate(v, m, basis[i]), n, basis[j]) \
                            - annihilate(annihilate(v, n, basis[j]), m, basis[i])
                        if not both.is_zero():
                            return [{"relation": "heisenberg_annihilators_commute",
                                     "status": "fail",
                                     "params": {"i": i, "j": j, "m": m, "n": n}}]
    results.append({"relation": "heisenberg",
                    "params": {"degree": degree, "n_max": nmax}, "status": "pass"})
    return results


def _verify_isometry(gamma: GammaData, xi: VirtualChar, nmax: int) -> List[dict]:
    ctx = FockContext(gamma, xi)
    k = gamma.num_classes
    for n in range(nmax + 1):
        rhos = list(multipartitions(n, k, "OP"))
        sigmas = {rho: sigma_rho(gamma, rho) for rho in rhos}
        images = {rho: ch(ctx, sigmas[rho]) for rho in rhos}
        for r1 in rhos:
            for r2 in rhos:
                lhs = weighted_inner(sigmas[r1], sigmas[r2], xi)
                rhs = inner(images[r1], images[r2])
                if not lhs == rhs:
                    return [{"relation": "isometry", "status": "fail",
                             "params": {"n": n, "rho1": repr(r1), "rho2": repr(r2)}}]
    return [{"relation": "isometry", "params": {"n_max": nmax}, "status": "pass"}]


def _verify_hopf(gamma: GammaData, xi: VirtualChar, nmax: int, seed: int = 0) -> List[dict]:
    import random

    from .fock import coproduct, tensor_inner

    rng = random.Random(seed)
    ctx = FockContext(gamma, xi)
    k = gamma.num_classes

    def random_fun(n: int) -> SpinClassFun:
        values = {}
        for rho in multipartitions(n, k, "OP"):
            values[rho] = Cyc.rational(rng.randint(-3, 3))
        return SpinClassFun(gamma, n, values)

    for _ in range(6):
        na = rng.randint(0, max(0, nmax // 2))
        nb = rng.randint(0, nmax - na)
        f, g = random_fun(na), random_fun(nb)
        if not ch(ctx, induction_product(f, g)) == ch(ctx, f) * ch(ctx, g):
            return [{"relation": "hopf_product", "status": "fail",
                     "params": {"na": na, "nb": nb}}]
    # pairing adjointness <fg, h> = <f (x) g, Delta h> on the Fock side
    for _ in range(4):
        na = rng.randint(0, 2)
        nb = rng.randint(0, 2)
        nc = na + nb
        f, g, h = random_fun(na), random_fun(nb), random_fun(nc)
        cf, cg_, chh = ch(ctx, f), ch(ctx, g), ch(ctx, h)
        lhs = inner(cf * cg_, chh)
        rhs = tensor_inner(ctx, coproduct(chh), cf, cg_)
        if not lhs == rhs:
            return [{"relation": "hopf_pairing", "status": "fail",
                     "params": {"na": na, "nb": nb}}]
    return [{"relation": "hopf", "params": {"n_max": nmax}, "status": "pass"}]


def _verify_oracle(gamma: GammaData, cg: ConcreteGroup, n: int) -> List[dict]:
    report = oracle_class_report(cg, gamma, n)
    results = [{"relation": "split_classification",
                "params": {"n": n}, "status": "pass" if report["status"] == "ok" else "fail",
                "witness": report["mismatches"] or None}]
    # basic spin traces against the closed character values
    k = gamma.num_classes
    for v_index in range(k):
        if v_index not in cg.rep_matrices:
            continue
        for tc in theory_classes(gamma, n):
            rep = representative_of_type(cg, n, SignedType(tc.rho_plus, tc.rho_minus))
            tr = basic_spin_trace(cg, gamma, v_index, n, rep)
            if tc.split and tc.parity == 0:
                expect = Cyc.rational(2 ** tc.rho_plus.length)
                for ci, part in enumerate(tc.rho_plus.parts):
                    for _ in part:
                        expect = expect * gamma.chars[v_index][ci]
                ok = tr == expect
            else:
                ok = tr.is_zero()
            if not ok:
                results.append({"relation": "basic_spin_trace", "status": "fail",
                                "params": {"V": v_index, "type": str(tc.rho_plus.parts)}})
                return results
    results.append({"relation": "basic_spin_trace", "params": {"n": n}, "status": "pass"})
    return results


AFFINE_INDEX_SETS = ("toroidal", "affine")


def _affine_docs(tctx: TwistContext, window: int, degree: int, label: str) -> List[dict]:
    """Affine certification on one index set: "toroidal" (all classes) or
    "affine" (the nontrivial ones)."""
    k = tctx.gamma.num_classes
    index_set = list(range(k)) if label == "toroidal" else list(range(1, k))
    out = []
    for item in affine_relation_check(tctx, index_set, window, degree):
        doc = item.to_doc()
        doc["index_set"] = label
        doc["gamma"] = tctx.gamma.name
        out.append(doc)
    return out


def run_affine_suite(gamma_spec: str, window: int, degree: int, label: str) -> List[dict]:
    """`_affine_docs` in a fresh context; module-level so it can be
    dispatched to worker processes."""
    gamma, _ = _resolve_gamma(gamma_spec)
    return _affine_docs(TwistContext(gamma, mckay_xi(gamma)), window, degree, label)


def cmd_verify(args) -> int:
    gamma, cg = _resolve_gamma(args.gamma)
    xi = _resolve_xi(gamma, args.xi)
    suite = args.suite
    results: List[dict] = []
    if suite == "heisenberg":
        results = _verify_heisenberg(gamma, xi, args.degree, args.window if args.window % 2 else args.window + 1)
    elif suite == "isometry":
        results = _verify_isometry(gamma, xi, args.n)
    elif suite == "hopf":
        results = _verify_hopf(gamma, xi, args.n)
    elif suite == "clifford":
        if xi.coeffs != VirtualChar.trivial(gamma).coeffs:
            raise ConfigError("the Clifford certification is stated for the standard weight")
        tctx = TwistContext(gamma, xi)
        results = [r.to_doc() for r in clifford_check(tctx, args.window, args.degree)]
    elif suite == "ope":
        tctx = TwistContext(gamma, xi)
        k = gamma.num_classes
        for i in range(k):
            for j in range(k):
                alpha = tctx.basis_vector(i)
                beta = tctx.basis_vector(j)
                results.append(ope_check(tctx, alpha, beta, args.window, args.degree).to_doc())
        results.append(x_parity_check(tctx, tctx.basis_vector(0), args.window,
                                      args.degree).to_doc())
        results.append(prim_commutator_check(tctx, tctx.basis_vector(0),
                                             tctx.basis_vector(min(1, k - 1)), 1,
                                             args.window, args.degree).to_doc())
    elif suite == "affine":
        if xi.coeffs != mckay_xi(gamma).coeffs:
            raise ConfigError("the affine certification requires the McKay weight")
        if args.jobs > 1:
            import multiprocessing as mp

            jobs = [(args.gamma, args.window, args.degree, label)
                    for label in AFFINE_INDEX_SETS]
            with mp.Pool(min(args.jobs, len(jobs))) as pool:
                parts = pool.starmap(run_affine_suite, jobs)
        else:
            # one context for both index sets, so the affine run reuses the
            # toroidal run's X rows
            tctx = TwistContext(gamma, xi)
            parts = [_affine_docs(tctx, args.window, args.degree, label)
                     for label in AFFINE_INDEX_SETS]
        for part in parts:
            results.extend(part)
    elif suite == "oracle":
        if cg is None:
            raise ConfigError("the oracle suite needs a built-in Gamma")
        results = _verify_oracle(gamma, cg, args.n)
    else:
        raise ConfigError(f"unknown suite {suite!r}")
    ok = all(r["status"] == "pass" for r in results)
    doc = {"suite": suite, "gamma": gamma.name, "xi": args.xi,
           "params": {"n": args.n, "degree": args.degree, "window": args.window},
           "results": results, "status": "ok" if ok else "fail"}
    _emit(doc, args.format, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


# -- entry point -------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", help="built-in name (trivial, cyclic:k, klein4, quaternion8) or @file.json")
    p.add_argument("--format", choices=["json", "csv", "pretty"], default=None)
    p.add_argument("--out", default=None, help="write the document to a file")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spinwreath",
                                 description="Exact spin character tables and twisted "
                                             "vertex operator certification for wreath "
                                             "product double covers.")
    ap.add_argument("--version", action="version", version=f"spinwreath {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="split conjugacy class classification")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--oracle", action="store_true", help="brute-force comparison (small n)")

    p = sub.add_parser("chartable", help="spin super character table")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--check", action="store_true", help="run the orthogonality/degree suite")

    p = sub.add_parser("verify", help="relation certification suites")
    p.add_argument("suite", choices=["heisenberg", "isometry", "hopf", "clifford",
                                     "ope", "affine", "oracle"])
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--xi", default=None, help="standard | mckay | comma separated ints")
    p.add_argument("--degree", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("mckay", help="weighted Cartan matrix and affine type")
    _add_common(p)
    p.add_argument("--pi-index", type=int, default=None)
    return ap


_DEFAULTS = {"n": 2, "degree": 4, "window": 2, "jobs": 1, "format": "json",
             "gamma": "trivial", "xi": "standard"}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for key, default in _DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, cfg.get(key, default))
    for key in ("n", "degree", "window"):
        value = getattr(args, key, None)
        if isinstance(value, int) and value < 0:
            raise ConfigError(f"--{key} must be at least 0, got {value}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("SPINWREATH_LOG", "WARNING"))
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        args = _merge_config(args)
        handler = {"classes": cmd_classes, "chartable": cmd_chartable,
                   "verify": cmd_verify, "mckay": cmd_mckay}[args.command]
        return handler(args)
    except (ConfigError, GammaValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
