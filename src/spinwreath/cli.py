"""Command-line front end: classes, chartable, verify, mckay.

A dispatcher: it parses arguments, merges them with an optional JSON config
file (flags win over the file, the file over defaults), resolves Gamma and
the weight xi, runs one command and emits its document.  The relation
suites of `verify` live in `suites.SUITES`.

Exit codes: 0 success, 2 usage or configuration error, 3 verification
failure.  All output is exact; documents are deterministic for a fixed
configuration.  The SPINWREATH_LOG environment variable sets the log level,
by name in any case, and nothing else; log records go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional, Sequence, Tuple

from . import __version__
from .fock import create  # noqa: F401  kept: perfbench/test_perfbench.py checks cli.create
from .gammadata import (ConcreteGroup, GammaData, GammaValidationError, VirtualChar,
                        builtin, gram_matrix, identify_affine_type, load_gamma, mckay_xi)
from .qtable import TableCheckError, build_table, table_csv
from .spingroup import SpinLaw, theory_classes
from .suites import SUITES, ConfigError, oracle_class_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


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
        return builtin(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    xi = VirtualChar(coeffs)
    if not xi.is_self_dual(gamma):
        # the weighted form is symmetric only when xi(c) = xi(c^-1)
        raise ConfigError(f"xi {spec} is not self-dual on {gamma.name}")
    return xi


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
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# -- classes ---------------------------------------------------------------------


def cmd_classes(args) -> int:
    gamma, cg = _resolve_gamma(args.gamma)
    n = args.n
    cnames = gamma.class_names
    classes = theory_classes(gamma, n)
    entries = []
    for tc in classes:
        entries.append({
            "rho": {"plus": tc.rho_plus.to_doc(cnames), "minus": tc.rho_minus.to_doc(cnames)},
            "parity": "odd" if tc.parity else "even",
            "split": tc.split,
            "centralizer": tc.cover_centralizer,
            "class_size": tc.cover_class_size,
        })
    doc = {"gamma": gamma.name, "n": n, "classes": entries,
           "even_split_pairs": sum(1 for t in classes if t.split and t.parity == 0),
           "odd_split_pairs": sum(1 for t in classes if t.split and t.parity == 1)}
    status = EXIT_OK
    if args.oracle:
        if cg is None:
            raise ConfigError("--oracle needs a built-in Gamma with a multiplication table")
        report = oracle_class_report(SpinLaw(cg, n), gamma, classes)
        doc["oracle"] = report
        if report["status"] != "ok":
            status = EXIT_VERIFY
    _emit(doc, args.format, args.out)
    return status


# -- chartable -------------------------------------------------------------------


def cmd_chartable(args) -> int:
    gamma, _ = _resolve_gamma(args.gamma)
    try:
        table = build_table(gamma, args.n, check=args.check)
    except TableCheckError as exc:
        _emit({"gamma": gamma.name, "n": args.n, "status": "check_failed",
               "witness": str(exc)}, "json", args.out)
        return EXIT_VERIFY
    _emit(table.to_doc(), args.format, args.out, csv_render=table_csv)
    return EXIT_OK


# -- mckay -----------------------------------------------------------------------


def cmd_mckay(args) -> int:
    gamma, _ = _resolve_gamma(args.gamma)
    try:
        xi = mckay_xi(gamma, args.pi_index)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cartan = gram_matrix(gamma, xi)
    affine = identify_affine_type(cartan)
    doc = {"gamma": gamma.name, "xi": "mckay", "cartan": cartan,
           "affine_type": affine if affine else "unrecognized"}
    _emit(doc, args.format, args.out)
    return EXIT_OK if affine else EXIT_VERIFY


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    gamma, cg = _resolve_gamma(args.gamma)
    xi = _resolve_xi(gamma, args.xi)
    results = SUITES[args.suite](gamma, cg, xi, args)
    ok = all(r["status"] == "pass" for r in results)
    doc = {"suite": args.suite, "gamma": gamma.name, "xi": args.xi,
           "params": {"n": args.n, "degree": args.degree, "window": args.window},
           "results": results, "status": "ok" if ok else "fail"}
    _emit(doc, args.format, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


# -- entry point -------------------------------------------------------------------


_FORMATS = ("json", "csv", "pretty")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", help="built-in name (trivial, cyclic:k, klein4, quaternion8) or @file.json")
    p.add_argument("--format", choices=_FORMATS, default=None)
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
    p.add_argument("--check", action="store_true",
                   help="certify X_lambda e^(-[lambda]) = Q_lambda per row, "
                        "orthogonality and the degree formula")

    p = sub.add_parser("verify", help="relation certification suites")
    p.add_argument("suite", choices=list(SUITES))
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--xi", default=None, help="standard | mckay | comma separated ints")
    p.add_argument("--degree", type=int)
    p.add_argument("--window", type=int)

    p = sub.add_parser("mckay", help="weighted Cartan matrix and affine type")
    _add_common(p)
    p.add_argument("--pi-index", type=int, default=None)
    return ap


_DEFAULTS = {"n": 2, "degree": 4, "window": 2, "format": "json",
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
        # one file may serve several commands, so every known key is accepted
        unknown = sorted(set(cfg) - set(_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config key{'s' * (len(unknown) > 1)} "
                              f"{', '.join(map(repr, unknown))}; "
                              f"known keys: {', '.join(sorted(_DEFAULTS))}")
    for key, default in _DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            value = cfg.get(key, default)
            # the flag's type: a JSON true is not an int, nor 3 a str
            if type(value) is not type(default):
                raise ConfigError(f"config value {key!r} must be {type(default).__name__}, "
                                  f"got {json.dumps(value)}")
            if key == "format" and value not in _FORMATS:
                raise ConfigError(f"config value 'format' must be one of "
                                  f"{', '.join(_FORMATS)}, got {json.dumps(value)}")
            setattr(args, key, value)
    for key, least in (("n", 0), ("degree", 0), ("window", 0)):
        value = getattr(args, key, None)
        if isinstance(value, int) and value < least:
            raise ConfigError(f"--{key} must be at least {least}, got {value}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    name = os.environ.get("SPINWREATH_LOG") or "WARNING"
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        sys.stderr.write(f"error: SPINWREATH_LOG must name a log level "
                         f"(DEBUG, INFO, WARNING, ERROR, CRITICAL), got {name!r}\n")
        return EXIT_USAGE
    logging.basicConfig(level=level)
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
