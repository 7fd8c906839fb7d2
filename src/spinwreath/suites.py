"""The relation suites of `verify`, in one registry.

`SUITES` maps each suite name, in the order `verify` lists them, to a
function (gamma, cg, xi, args) -> result documents: the resolved Gamma, its
multiplication table (None for an @file Gamma), the weight and the merged
options (n, degree, window).  A suite checks its own preconditions and
raises `ConfigError` when they fail.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from .classfun import (SpinClassFun, basic_char, ch, induction_product, sigma_rho,
                       weighted_inner)
from .fock import FockContext, coproduct, inner, tensor_inner
from .gammadata import ConcreteGroup, GammaData, VirtualChar, mckay_xi
from .partitions import big_z, multipartitions
from .scalars import axis_scalar
from .spingroup import (SignedType, SpinLaw, TheoryClass, basic_spin_trace,
                        enumerate_classes_bruteforce, is_split, representative_of_type,
                        theory_classes)
from .vertex import (TwistContext, affine_relation_check, certify_instances, clifford_check,
                     hh_instances, ope_check, prim_commutator_check, x_parity_check)


class ConfigError(ValueError):
    """A usage or configuration error; the CLI exits 2 with its message."""


# -- on the row engine ------------------------------------------------------------


def heisenberg_docs(tctx: TwistContext, degree: int, n_max: int) -> List[dict]:
    """[a_m(g_i), a_m'(g_j)] = (m/2) d_{m,-m'} <g_i, g_j>_xi for all i, j and odd
    |m|, |m'| <= n_max on every basis vector of Fock degree <= degree, through
    the row engine's H layers (the affine suite's `hh` instances)."""
    instances = hh_instances(tctx, range(tctx.gamma.num_classes), n_max)
    return [certify_instances(tctx, "heisenberg", instances, tctx.fock.basis(degree),
                              {"degree": degree, "n_max": n_max}).to_doc()]


def _heisenberg(gamma: GammaData, cg, xi: VirtualChar, args) -> List[dict]:
    n_max = args.window if args.window % 2 else args.window + 1
    return heisenberg_docs(TwistContext(gamma, xi), args.degree, n_max)


def _clifford(gamma: GammaData, cg, xi: VirtualChar, args) -> List[dict]:
    if xi.coeffs != VirtualChar.trivial(gamma).coeffs:
        raise ConfigError("the Clifford certification is stated for the standard weight")
    tctx = TwistContext(gamma, xi)
    return [r.to_doc() for r in clifford_check(tctx, args.window, args.degree)]


def _ope(gamma: GammaData, cg, xi: VirtualChar, args) -> List[dict]:
    tctx = TwistContext(gamma, xi)
    k = gamma.num_classes
    results = []
    for i in range(k):
        for j in range(k):
            results.append(ope_check(tctx, tctx.basis_vector(i), tctx.basis_vector(j),
                                     args.window, args.degree).to_doc())
    results.append(x_parity_check(tctx, tctx.basis_vector(0), args.window,
                                  args.degree).to_doc())
    results.append(prim_commutator_check(tctx, tctx.basis_vector(0),
                                         tctx.basis_vector(min(1, k - 1)), 1,
                                         args.window, args.degree).to_doc())
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


def _affine(gamma: GammaData, cg, xi: VirtualChar, args) -> List[dict]:
    try:
        mckay = mckay_xi(gamma)
    except ValueError as exc:
        raise ConfigError(f"the affine certification requires the McKay weight: {exc}") from exc
    if xi.coeffs != mckay.coeffs:
        raise ConfigError("the affine certification requires the McKay weight")
    if args.window < 1:
        # [-window, window] must hold an odd index, or hh and hx check nothing
        raise ConfigError(f"--window must be at least 1 for the affine suite, got {args.window}")
    # one context for both index sets, so the affine run reuses the
    # toroidal run's X rows
    tctx = TwistContext(gamma, xi)
    return [doc for label in AFFINE_INDEX_SETS
            for doc in _affine_docs(tctx, args.window, args.degree, label)]


# -- on Fock vectors and the brute-force group -----------------------------------


def _isometry(gamma: GammaData, cg, xi: VirtualChar, args) -> List[dict]:
    ctx = FockContext(gamma, xi)
    k = gamma.num_classes
    for n in range(args.n + 1):
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
    return [{"relation": "isometry", "params": {"n_max": args.n}, "status": "pass"}]


def _hopf(gamma: GammaData, cg, xi: VirtualChar, args) -> List[dict]:
    rng = random.Random(0)
    ctx = FockContext(gamma, xi)
    k = gamma.num_classes

    def random_fun(n: int) -> SpinClassFun:
        values = {}
        for rho in multipartitions(n, k, "OP"):
            values[rho] = rng.randint(-3, 3)
        return SpinClassFun(gamma, n, values)

    for _ in range(6):
        na = rng.randint(0, max(0, args.n // 2))
        nb = rng.randint(0, args.n - na)
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
    return [{"relation": "hopf", "params": {"n_max": args.n}, "status": "pass"}]


def oracle_class_report(law: SpinLaw, gamma: GammaData, theory: List[TheoryClass]) -> dict:
    """Brute-force class data of `law`'s cover against the split-classification
    and centralizer formula and the theory-side classes `theory_classes(gamma,
    law.n)`; exact equality or a witness."""
    classes = enumerate_classes_bruteforce(law)
    zetas = gamma.centralizer_orders
    mismatches = []
    by_type: Dict[Tuple, List] = {}
    for c in classes:
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


def _oracle(gamma: GammaData, cg: Optional[ConcreteGroup], xi: VirtualChar,
            args) -> List[dict]:
    if cg is None:
        raise ConfigError("the oracle suite needs a built-in Gamma")
    n = args.n
    law = SpinLaw(cg, n)
    theory = theory_classes(gamma, n)
    report = oracle_class_report(law, gamma, theory)
    results = [{"relation": "split_classification",
                "params": {"n": n}, "status": "pass" if report["status"] == "ok" else "fail",
                "witness": report["mismatches"] or None}]
    # basic spin traces against the closed character values
    k = gamma.num_classes
    traces = [basic_spin_trace(law, gamma, representative_of_type(
        law, SignedType(tc.rho_plus, tc.rho_minus))) for tc in theory]
    for v_index in range(k):
        basic = basic_char(gamma, n, [1 if i == v_index else 0 for i in range(k)])
        for tc, tr_by_v in zip(theory, traces):
            tr = tr_by_v[v_index]
            if tc.split and tc.parity == 0:
                ok = tr == axis_scalar(gamma.axis, basic.nums.get(tc.rho_plus, (0,)), basic.den)
            else:
                ok = not any(tr[1])
            if not ok:
                results.append({"relation": "basic_spin_trace", "status": "fail",
                                "params": {"V": v_index, "type": str(tc.rho_plus.parts)}})
                return results
    results.append({"relation": "basic_spin_trace", "params": {"n": n}, "status": "pass"})
    return results


SUITES: Dict[str, Callable[..., List[dict]]] = {
    "heisenberg": _heisenberg, "isometry": _isometry, "hopf": _hopf, "clifford": _clifford,
    "ope": _ope, "affine": _affine, "oracle": _oracle}
