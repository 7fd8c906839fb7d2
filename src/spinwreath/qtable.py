"""Schur-Q machinery and the spin super character table.

Two independent routes produce the same symmetric function for a strict
multipartition: the raising-operator expansion prod (1-R_ij)/(1+R_ij)
applied to a product of q-generators, and iterated vertex-operator
components applied to a shifted lattice vacuum.  Their agreement, the
realization identity X_lambda e^(-[lambda]) = Q_lambda, is certified row by
row by `build_table(check=True)` (`chartable --check`).  Character values
come from the matrix
coefficient 2^(l(mu) - floor(l(lambda)/2)) <X_lambda e^(-[lambda]), a'_-mu>
at the standard weight; every ceiling in the source formulas is read as a
floor (the n = 1 norm and the basic-module dimension force that reading).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .classfun import SpinClassFun, weighted_inner
from .fock import FockContext, FockVector, a_prime_vector, inner, q_gen
from .gammadata import GammaData, VirtualChar
from .lattice import vec_to_mask
from .partitions import MultiPartition, dominates, multipartitions
from .scalars import Coeff, cyc_from_numerators, on_one_denominator, value_doc
from .vertex import TwistContext, x_component

Tuple_ = Tuple[int, ...]


def q_power_product(ctx: FockContext, phi: Sequence[int], char_index: int) -> FockVector:
    """prod_i q_{phi_i}(gamma) with q_0 = 1 and q_m = 0 for m < 0."""
    coeffs = [1 if t == char_index else 0 for t in range(ctx.gamma.num_classes)]
    out = FockVector.vacuum(ctx)
    for p in phi:
        if p < 0:
            return FockVector.zero(ctx)
        if p == 0:
            continue
        out = out * q_gen(ctx, p, coeffs)
    return out


def _raising_tuples(parts: Tuple_, total: int) -> Dict[Tuple_, int]:
    """Expand prod_{i<j} (1-R_ij)/(1+R_ij) on the exponent tuple.

    Pairs are processed in lexicographic order; position i is final once its
    block of pairs (i, *) is done, which bounds every series (a final entry
    can never exceed the total weight) and guarantees termination.
    """
    m = len(parts)
    state: Dict[Tuple_, int] = {tuple(parts): 1}
    for i in range(m):
        for j in range(i + 1, m):
            nxt: Dict[Tuple_, int] = {}
            for tup, coef in state.items():
                lst = list(tup)
                k = 0
                while True:
                    cur = tuple(lst)
                    c = coef if k == 0 else coef * 2 * (-1) ** k
                    nxt[cur] = nxt.get(cur, 0) + c
                    k += 1
                    if lst[i] + 1 > total:
                        break
                    lst[i] += 1
                    lst[j] -= 1
            state = {t: c for t, c in nxt.items() if c}
        # all pairs with first index i are done; entry i is final
        state = {t: c for t, c in state.items() if 0 <= t[i] <= total}
    return state


@lru_cache(maxsize=None)
def raising_coefficients(lam_parts: Tuple_) -> Dict[Tuple_, int]:
    """Integer transition coefficients of Q_lambda onto sorted q-monomials,
    computed once per parts; the dict is shared, so read it only."""
    total = sum(lam_parts)
    out: Dict[Tuple_, int] = {}
    for tup, coef in _raising_tuples(lam_parts, total).items():
        if any(t < 0 for t in tup):
            continue
        key = tuple(sorted((t for t in tup if t > 0), reverse=True))
        out[key] = out.get(key, 0) + coef
    return {k: v for k, v in out.items() if v}


def raising_expand(ctx: FockContext, lam: MultiPartition) -> FockVector:
    """Q_lambda = prod_gamma Q_lambda(gamma) via the raising-operator expansion."""
    out = FockVector.vacuum(ctx)
    for i, parts in enumerate(lam.parts):
        if not parts:
            continue
        if len(set(parts)) != len(parts):
            raise ValueError(f"lambda must be strict per index, got {parts}")
        piece = FockVector.zero(ctx)
        for tup, coef in raising_coefficients(parts).items():
            piece = piece + q_power_product(ctx, tup, i).scale(coef)
        out = out * piece
    return out


def lambda_shift(lam: MultiPartition) -> Tuple_:
    """[lambda] = sum_i l(lambda(gamma_i)) [gamma_i] as an integer vector."""
    return tuple(len(p) for p in lam.parts)


def x_lambda_vector(tctx: TwistContext, lam: MultiPartition) -> FockVector:
    """X_lambda e^(-[lambda]): the vertex components X_{-lambda(gamma_i)}(gamma_i)
    iterated on the lattice vacuum e^(-[lambda]).

    Components are applied per character index in table order, smallest part
    first within an index.  Their Fock parts compose on one integer row of
    monomial indices from the Fock vacuum (`x_component`), read back as
    monomials once, at the end; their lattice parts carry e^(-[lambda]) to
    the zero class, each step signed by the cocycle, and that sign chain
    scales the final row.  (In this order every step's sign is +1: epsilon
    (gamma_i, b) = +1 when b has no bit below i.)  The result is the Fock
    vector in the zero class.
    """
    cur = vec_to_mask(lambda_shift(lam))  # -[lambda] mod 2
    sign = 1
    row = (1, ((tctx.index(()), 1),))
    for i, parts in enumerate(lam.parts):
        if parts and len(set(parts)) != len(parts):
            raise ValueError(f"lambda must be strict per index, got {parts}")
        gi = tctx.basis_vector(i)
        for p in sorted(parts):
            row = x_component(tctx, -p, gi, row)
            eps, cur = tctx.twist.act(1 << i, cur)
            sign *= eps
    den, entries = row
    return FockVector.from_row(tctx.fock, den, [(tctx.monos[i], sign * num) for i, num in entries])


def char_value(tctx: TwistContext, lam: MultiPartition, mu: MultiPartition,
               x_vec: Optional[FockVector] = None,
               a_vec: Optional[FockVector] = None) -> Tuple[int, Coeff]:
    """chi_lambda(D_mu^+) = 2^(l(mu) - floor(l(lambda)/2)) <X_lambda e^(-[lambda]), a'_-mu>,
    the pairing taken by `fock.inner` on the zero-class Fock vector.

    The pairing reads a'_-mu through its dual, so a column's a_vec values
    each monomial of the rows' X_lambda once.  The power of 2 is the
    pairing's scale, an int or 1/2^k, so each entry is the pairing's one
    canonical value (den, numerators) on Gamma's value axis.  x_vec and
    a_vec, when given, must be x_lambda_vector(tctx, lam) and
    a_prime_vector(tctx.fock, mu).
    """
    if lam.weight != mu.weight:
        raise ValueError("weight mismatch between lambda and mu")
    if x_vec is None:
        x_vec = x_lambda_vector(tctx, lam)
    if a_vec is None:
        a_vec = a_prime_vector(tctx.fock, mu)
    e = mu.length - lam.length // 2
    return inner(x_vec, a_vec, 1 << e if e >= 0 else Fraction(1, 1 << -e))


def char_degree(lam: MultiPartition, gamma: GammaData) -> int:
    """Degree formula 2^(n - floor(l/2)) n! prod_gamma deg(gamma)^|lambda| / ... ."""
    n = lam.weight
    val = Fraction(factorial(n)) * 2 ** (n - lam.length // 2)
    for i, parts in enumerate(lam.parts):
        if not parts:
            continue
        deg = gamma.degree(i)
        val *= Fraction(deg ** sum(parts))
        for p in parts:
            val /= factorial(p)
        # picket factor prod_{i<j} (l_i - l_j)/(l_i + l_j)
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                val *= Fraction(parts[a] - parts[b], parts[a] + parts[b])
    if val.denominator != 1:
        raise ArithmeticError(f"degree of {lam!r} is not an integer: {val}")
    return val.numerator


@dataclass
class CharRow:
    lam: MultiPartition
    module_type: str  # "M" (even length) or "Q" (odd length)
    degree: int
    values: SpinClassFun  # the row's values on the columns


@dataclass
class CharTable:
    gamma: GammaData
    n: int
    columns: List[MultiPartition]
    rows: List[CharRow]

    def to_doc(self) -> dict:
        """Each value's document is written from its numerators (`value_doc`)."""
        cnames = self.gamma.class_names
        gnames = self.gamma.char_names
        axis = self.gamma.value_numerators[0]
        return {
            "gamma": self.gamma.name,
            "n": self.n,
            "xi": "standard",
            "columns": [mu.to_doc(cnames) for mu in self.columns],
            "rows": [{
                "lambda": row.lam.to_doc(gnames),
                "type": row.module_type,
                "degree": row.degree,
                "values": [value_doc(axis, row.values.nums.get(mu, (0,)), row.values.den)
                           for mu in self.columns],
            } for row in self.rows],
        }


def _pretty(value: dict) -> str:
    """A value document as `Cyc.pretty` prints it: "p" or "p/q" when the
    value is rational, else the compact document itself."""
    if not any(p for p, _ in value["coeffs"][1:]):
        return str(Fraction(*value["coeffs"][0]))
    return json.dumps(value, separators=(",", ":"))


def table_csv(doc: dict) -> str:
    """The CSV rendering of a `CharTable.to_doc` document: one quoted row per
    character, exact values as `Cyc.pretty` prints them, read straight from
    each value's document (`_pretty`)."""
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_ALL)
    cols = [json.dumps(c, separators=(",", ":")) for c in doc["columns"]]
    w.writerow(["lambda", "type", "degree"] + cols)
    for row in doc["rows"]:
        rendered = [_pretty(v) for v in row["values"]]
        w.writerow([json.dumps(row["lambda"], separators=(",", ":")),
                    row["type"], row["degree"]] + rendered)
    return buf.getvalue()


class TableCheckError(AssertionError):
    """A verification pass over a character table failed."""


def build_table(gamma: GammaData, n: int, check: bool = False,
                tctx: Optional[TwistContext] = None) -> CharTable:
    """Rows for all strict multipartitions over the characters, with the row
    sign normalized so the degree entry is positive.

    Column by column: each a'_-mu is expanded once and paired with every
    row's X_lambda vector, which are all built first.  With check, each
    X_lambda vector is certified against Q_lambda (`verify_realization`)
    before any pairing, and the finished table by `verify_table`.
    """
    if tctx is None:
        tctx = TwistContext(gamma, VirtualChar.trivial(gamma))
    k = gamma.num_classes
    columns = list(multipartitions(n, k, "OP", per_index_ascending=True))
    lambdas = list(multipartitions(n, k, "SP"))
    identity_col = MultiPartition.single(k, 0, (1,) * n) if n else MultiPartition.empty(k)
    x_vecs = [x_lambda_vector(tctx, lam) for lam in lambdas]
    if check:
        for lam, x_vec in zip(lambdas, x_vecs):
            verify_realization(tctx, lam, x_vec)
    row_values: List[Dict[MultiPartition, Tuple[int, Coeff]]] = [{} for _ in lambdas]
    for mu in columns:
        a_vec = a_prime_vector(tctx.fock, mu)
        for lam, x_vec, values in zip(lambdas, x_vecs, row_values):
            v = char_value(tctx, lam, mu, x_vec, a_vec)
            if any(v[1]):
                values[mu] = v
    rows: List[CharRow] = []
    for lam, values in zip(lambdas, row_values):
        deg_den, deg = values.get(identity_col, (1, (0,)))
        if deg_den != 1 or any(deg[1:]) or not deg[0]:
            shown = cyc_from_numerators(tctx.fock.axis, deg, deg_den)
            raise TableCheckError(f"identity value of {lam!r} is not a nonzero integer: {shown!r}")
        if deg[0] < 0:  # resolve the global sign so the degree is positive
            values = {mu: (d, tuple(-x for x in c)) for mu, (d, c) in values.items()}
        row_type = "M" if lam.length % 2 == 0 else "Q"
        rows.append(CharRow(lam, row_type, abs(deg[0]),
                            SpinClassFun.from_numerators(gamma, n, *on_one_denominator(values))))
    table = CharTable(gamma, n, columns, rows)
    if check:
        verify_table(table)
    return table


def verify_realization(tctx: TwistContext, lam: MultiPartition, x_vec: FockVector) -> None:
    """X_lambda e^(-[lambda]) = Q_lambda: the row's vertex-operator vector
    (`x_lambda_vector`) against the raising-operator expansion.  The two
    routes meet only in `fock.q_gen`."""
    if not x_vec == raising_expand(tctx.fock, lam):
        raise TableCheckError(f"X_lambda e^(-[lambda]) differs from Q_lambda at {lam!r}")


def verify_table(table: CharTable) -> None:
    """Row orthogonality with the type norms, degree formula, squareness,
    and the unitriangular integral transition of the raising expansion.

    Each pair of rows is one `classfun.weighted_inner` call, in row order,
    as the benchmark counts them (ROADMAP item 1): one exact integer dot
    with the right row's weighted dual, its column of W M_bar^T in the Gram
    product M W M_bar^T, made once per row, so no change to a norm or a
    zero is too small to see.  A failure shows the value as a `Cyc`."""
    gamma = table.gamma
    if len(table.rows) != len(table.columns):
        raise TableCheckError(
            f"table is not square: {len(table.rows)} rows, {len(table.columns)} columns")
    xi0 = VirtualChar.trivial(gamma)
    axis = gamma.value_numerators[0]
    for a, ra in enumerate(table.rows):
        for b, rb in enumerate(table.rows):
            val = weighted_inner(ra.values, rb.values, xi0)
            expect = 0
            if a == b:
                expect = 1 if ra.module_type == "M" else 2
            if val != gamma.on_axis(expect):
                shown = cyc_from_numerators(axis, val[1], val[0])
                raise TableCheckError(
                    f"orthogonality fails at rows {ra.lam!r}, {rb.lam!r}: {shown!r}")
    for row in table.rows:
        if char_degree(row.lam, gamma) != row.degree:
            raise TableCheckError(
                f"degree formula mismatch for {row.lam!r}: "
                f"{char_degree(row.lam, gamma)} vs {row.degree}")
    # unitriangular integer transition per index
    for row in table.rows:
        for i, parts in enumerate(row.lam.parts):
            if not parts:
                continue
            coeffs = raising_coefficients(parts)
            if coeffs.get(parts, 0) != 1:
                raise TableCheckError(f"leading raising coefficient of {parts} is not 1")
            for tup, c in coeffs.items():
                if not isinstance(c, int):
                    raise TableCheckError(f"non-integer raising coefficient {c}")
                if tup != parts and not dominates(tup, parts):
                    raise TableCheckError(f"raising support {tup} does not dominate {parts}")
