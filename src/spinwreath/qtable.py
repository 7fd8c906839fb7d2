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

Tensoring with a linear character delta of Gamma is a symmetry of the
table: chi_{delta_bar.lambda}(D_mu^+) = delta(mu) chi_lambda(D_mu^+), with
delta(mu) = prod_c delta(c)^l(mu(c)) and delta_bar.lambda putting
lambda(gamma) at delta_bar gamma (`GammaData.linear_twists`).  So
`build_table` pairs one row per orbit of the linear characters and fills
the others by that rule; with check it pairs every row and certifies the
rule on every filled entry (`verify_twists`).

The Galois group acts on the columns the same way:
sigma_a(chi_lambda(D_mu^+)) = chi_lambda(D_mu^(a)^+) for each a prime to
Gamma's value axis N, with sigma_a: z -> z^a and mu^(a) putting mu(c) at the
class of c^a (`GammaData.galois`).  So `build_table` expands and pairs
a'_-mu for one column per Galois orbit and fills the others by sigma_a; with
check it pairs every column and certifies the rule on every entry
(`verify_galois`).
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .classfun import SpinClassFun, weighted_inner
from .fock import VACUUM, FockContext, FockVector, a_prime_vector, inner, q_gen
from .gammadata import GammaData, VirtualChar
from .lattice import vec_to_mask
from .partitions import MultiPartition, dominates, multipartitions
from .scalars import (Coeff, add_into, euler_phi, on_one_denominator, root_matrix, times_root,
                      value_doc, value_repr, value_text)
from .vertex import TwistContext, x_component

Tuple_ = Tuple[int, ...]
_LOG = logging.getLogger(__name__)


def q_power_product(ctx: FockContext, phi: Sequence[int], char_index: int) -> FockVector:
    """prod_i q_{phi_i}(gamma) with q_0 = 1 and q_m = 0 for m < 0, gamma the
    irreducible char_index.

    Products are kept on the context (`FockContext._q_products`), keyed by
    (char_index, the nonzero entries of phi); each is q_{t_0} times the kept
    product of its tail, so a tail shared by many tuples, across lambda too,
    is multiplied out once."""
    if any(p < 0 for p in phi):
        return FockVector.zero(ctx)
    parts = tuple(p for p in phi if p)
    key = (char_index, parts)
    out = ctx._q_products.get(key)
    if out is None:
        if not parts:
            out = FockVector.vacuum(ctx)
        else:
            coeffs = [1 if t == char_index else 0 for t in range(ctx.gamma.num_classes)]
            out = q_gen(ctx, parts[0], coeffs) * q_power_product(ctx, parts[1:], char_index)
        ctx._q_products[key] = out
    return out


def _raising_tuples(parts: Tuple_, total: int) -> Dict[Tuple_, int]:
    """Expand prod_{i<j} (1-R_ij)/(1+R_ij) on the exponent tuple, keeping
    every tuple whose entries can all end nonnegative.

    Pairs are processed in lexicographic order; position i is final once its
    block of pairs (i, *) is done, which bounds every series (a final entry
    can never exceed the total weight) and guarantees termination.  A step
    R_ab (a < b) lowers the suffix sums sum_{h >= h0} t[h] with a < h0 <= b
    and leaves the others alone, so no suffix sum ever rises: a tuple with a
    negative suffix sum ends with a negative entry, which
    `raising_coefficients` drops.  The series of pair (i, j) therefore stops
    once a suffix sum with i < h0 <= j would go negative.
    """
    m = len(parts)
    state: Dict[Tuple_, int] = {tuple(parts): 1}
    for i in range(m):
        for j in range(i + 1, m):
            nxt: Dict[Tuple_, int] = {}
            for tup, coef in state.items():
                room = min(total - tup[i], *(sum(tup[h0:]) for h0 in range(i + 1, j + 1)))
                lst = list(tup)
                nxt[tup] = nxt.get(tup, 0) + coef
                for k in range(1, room + 1):
                    lst[i] += 1
                    lst[j] -= 1
                    cur = tuple(lst)
                    nxt[cur] = nxt.get(cur, 0) + coef * 2 * (-1) ** k
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
    """Q_lambda = prod_gamma Q_lambda(gamma) via the raising-operator expansion.

    Each factor Q_lambda(gamma) = sum c_phi q_phi(gamma) over the raising
    coefficients is summed once, on numerators over one common denominator,
    as `classfun.ch` sums; its q-products come from `q_power_product`."""
    out = FockVector.vacuum(ctx)
    for i, parts in enumerate(lam.parts):
        if not parts:
            continue
        if len(set(parts)) != len(parts):
            raise ValueError(f"lambda must be strict per index, got {parts}")
        terms = [(coef, q_power_product(ctx, tup, i))
                 for tup, coef in raising_coefficients(parts).items()]
        den = lcm(*(vec.den for _, vec in terms))
        nums: Dict = {}
        for coef, vec in terms:
            c = coef * (den // vec.den)
            for m, a in vec.nums.items():
                add_into(nums, m, tuple(c * x for x in a))
        out = out * FockVector.from_numerators(ctx, den, nums)
    return out


def lambda_shift(lam: MultiPartition) -> Tuple_:
    """[lambda] = sum_i l(lambda(gamma_i)) [gamma_i] as an integer vector."""
    return tuple(len(p) for p in lam.parts)


def x_lambda_vector(tctx: TwistContext, lam: MultiPartition) -> FockVector:
    """X_lambda e^(-[lambda]): the vertex components X_{-lambda(gamma_i)}(gamma_i)
    iterated on the lattice vacuum e^(-[lambda]).

    Components are applied per character index in table order, smallest part
    first within an index.  Their Fock parts compose on one integer index row
    from the Fock vacuum (`x_component`), whose entries the vector keeps as
    they are (`FockVector.from_row`); their lattice parts carry e^(-[lambda])
    to the zero class, each step signed by the cocycle, and that sign chain
    scales the final row.  (In this order every step's sign is +1: epsilon
    (gamma_i, b) = +1 when b has no bit below i.)  The result is the Fock
    vector in the zero class.
    """
    cur = vec_to_mask(lambda_shift(lam))  # -[lambda] mod 2
    sign = 1
    row = (1, ((VACUUM, 1),))
    for i, parts in enumerate(lam.parts):
        if parts and len(set(parts)) != len(parts):
            raise ValueError(f"lambda must be strict per index, got {parts}")
        gi = tctx.basis_vector(i)
        for p in sorted(parts):
            row = x_component(tctx, -p, gi, row)
            eps, cur = tctx.twist.act(1 << i, cur)
            sign *= eps
    den, entries = row
    return FockVector.from_row(tctx.fock, den, [(i, sign * num) for i, num in entries])


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
        """Each distinct value's document is written once from its numerators
        (`value_doc`) and shared by every equal entry of the table."""
        cnames = self.gamma.class_names
        gnames = self.gamma.char_names
        axis = self.gamma.axis
        zero = value_doc(axis, (0,), 1)
        docs: Dict[Tuple[Coeff, int], dict] = {}  # (numerators, den) -> its document

        def values(f: SpinClassFun) -> List[dict]:
            out = []
            for mu in self.columns:
                c = f.nums.get(mu)
                if c is None:
                    out.append(zero)
                    continue
                doc = docs.get((c, f.den))
                if doc is None:
                    doc = docs[c, f.den] = value_doc(axis, c, f.den)
                out.append(doc)
            return out

        return {
            "gamma": self.gamma.name,
            "n": self.n,
            "xi": "standard",
            "columns": [mu.to_doc(cnames) for mu in self.columns],
            "rows": [{
                "lambda": row.lam.to_doc(gnames),
                "type": row.module_type,
                "degree": row.degree,
                "values": values(row.values),
            } for row in self.rows],
        }


def table_csv(doc: dict) -> str:
    """The CSV rendering of a `CharTable.to_doc` document: one quoted row per
    character, each exact value read from its document and printed by
    `scalars.value_text`."""
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_ALL)
    cols = [json.dumps(c, separators=(",", ":")) for c in doc["columns"]]
    w.writerow(["lambda", "type", "degree"] + cols)
    for row in doc["rows"]:
        rendered = []
        for v in row["values"]:
            den = lcm(*(q for _, q in v["coeffs"]))
            rendered.append(value_text(v["N"], [p * (den // q) for p, q in v["coeffs"]], den))
        w.writerow([json.dumps(row["lambda"], separators=(",", ":")),
                    row["type"], row["degree"]] + rendered)
    return buf.getvalue()


class TableCheckError(AssertionError):
    """A verification pass over a character table failed."""


# (d, perm, roots) of a linear character gamma_d: `GammaData.linear_twists`;
# (a, rows, perm) of sigma_a: `GammaData.galois`
Action = Tuple[int, Tuple, Tuple]
Orbits = Dict[MultiPartition, Tuple[MultiPartition, Action]]


def _orbits(items: Sequence[MultiPartition], actions: Sequence[Tuple[Action, Tuple[int, ...]]]
            ) -> Orbits:
    """{x: (rep, action)} for each x of items that is not the first of its
    orbit under the actions, each (action, perm) moving x(i) to index
    perm[i]: x is rep so moved, rep the orbit's first member in the order
    of items.  Keys come in the order of items."""
    found: Orbits = {}
    reps = set()
    inverses = [(action, [perm.index(j) for j in range(len(perm))]) for action, perm in actions]
    for x in items:
        if x in found:
            continue
        reps.add(x)
        for action, inverse in inverses:
            image = x.relabel(inverse)  # x(i) moved to perm[i]
            if image not in reps and image not in found:
                found[image] = (x, action)
    return {x: found[x] for x in items if x in found}


def _twist_orbits(gamma: GammaData, lambdas: Sequence[MultiPartition]) -> Orbits:
    """{lambda: (rep, twist)}: lambda = delta_bar.rep for the twist (d, perm,
    roots) of delta = gamma_d (`_orbits` under `GammaData.linear_twists`)."""
    return _orbits(lambdas, [(twist, twist[1]) for twist in gamma.linear_twists])


def _galois_orbits(gamma: GammaData, columns: Sequence[MultiPartition]) -> Orbits:
    """{mu: (rep, (a, rows, perm))}: mu = rep^(a), rep(c) put at the class
    perm[c] of c^a (`_orbits` under `GammaData.galois`)."""
    return _orbits(columns, [(g, g[2]) for g in gamma.galois])


def _root_actions(gamma: GammaData, columns: Sequence[MultiPartition],
                  roots: Sequence[Tuple[int, int]]) -> Dict[MultiPartition, object]:
    """How multiplying by delta(mu) = prod_c delta(c)^l(mu(c)), a root of
    unity, acts on a value's numerators at each column mu: None for 1, -1
    for -1, else its `scalars.root_matrix`.  roots[c] = (s, k) with
    delta(c) = s z^k (`linear_twists`), so delta(mu) is a sign and an
    exponent mod N, taken below N/2 for even N, where z^(N/2) = -1."""
    axis = gamma.axis
    out = {}
    for mu in columns:
        sign, k = 1, 0
        for (s, e), part in zip(roots, mu.parts):
            sign *= s ** len(part)
            k += e * len(part)
        k %= axis
        if axis % 2 == 0 and k >= axis // 2:
            sign, k = -sign, k - axis // 2
        out[mu] = (root_matrix(axis, sign, k) if k else None if sign == 1 else -1)
    return out


def _twisted_rows(gamma: GammaData, columns: Sequence[MultiPartition],
                  orbits: Orbits, rows: Dict[MultiPartition, CharRow]):
    """(lambda, rep, d, values) for each lambda of orbits, in its order:
    values the sign-normalized row of rep with each entry multiplied by
    delta(mu), which is chi_lambda on the columns (`GammaData.linear_twists`).
    delta(mu) is made once per (delta, column) (`_root_actions`)."""
    actions: Dict[int, Dict[MultiPartition, object]] = {}
    for lam, (rep, (d, _, roots)) in orbits.items():
        act = actions.get(d)
        if act is None:
            act = actions[d] = _root_actions(gamma, columns, roots)
        f = rows[rep].values
        nums = {}
        for mu, c in f.nums.items():
            a = act[mu]
            nums[mu] = (c if a is None else tuple([-x for x in c]) if a == -1
                        else times_root(a, c))
        yield lam, rep, d, SpinClassFun.from_numerators(gamma, f.n, f.den, nums)


def build_table(gamma: GammaData, n: int, check: bool = False,
                tctx: Optional[TwistContext] = None) -> CharTable:
    """Rows for all strict multipartitions over the characters, with the row
    sign normalized so the degree entry is positive.

    Tensoring with a linear character delta of Gamma permutes the rows:
    chi_{delta_bar.lambda}(D_mu^+) = delta(mu) chi_lambda(D_mu^+)
    (`GammaData.linear_twists`).  Without check, only the first lambda of
    each orbit of the linear characters is computed through the vertex
    route, and every other row is its representative's row times delta(mu)
    (`_twisted_rows`), with the same module type and degree, as
    delta(1^n) = 1.  With check, every row is computed through the vertex
    route: each X_lambda vector is certified against Q_lambda
    (`verify_realization`) before any pairing, every other row against the
    twist of its representative (`verify_twists`) once each identity value
    is found a nonzero integer, and the finished table by `verify_table`.

    The Galois group permutes the columns:
    sigma_a(chi_lambda(D_mu^+)) = chi_lambda(D_mu^(a)^+) (`GammaData.galois`).
    Without check, a'_-mu is expanded and paired only for the first mu of
    each Galois orbit, and each other column mu^(a) of every paired row is
    sigma_a of its representative's entry, before the sign normalization
    and the twist fill; the identity column is fixed, and sigma_a, a unit,
    keeps each canonical value canonical.  With check, every column is
    paired, and the finished table is certified against the rule by
    `verify_galois`, after `verify_twists`.

    Column by column: each expanded a'_-mu is paired with every computed
    row's X_lambda vector, which are all built first.
    """
    if tctx is None:
        tctx = TwistContext(gamma, VirtualChar.trivial(gamma))
    k = gamma.num_classes
    columns = list(multipartitions(n, k, "OP", per_index_ascending=True))
    lambdas = list(multipartitions(n, k, "SP"))
    identity_col = MultiPartition.single(k, 0, (1,) * n) if n else MultiPartition.empty(k)
    orbits = {} if check else _twist_orbits(gamma, lambdas)
    galois = {} if check else _galois_orbits(gamma, columns)
    paired = [lam for lam in lambdas if lam not in orbits]
    x_vecs = [x_lambda_vector(tctx, lam) for lam in paired]
    if check:
        for lam, x_vec in zip(paired, x_vecs):
            verify_realization(tctx, lam, x_vec)
    row_values: List[Dict[MultiPartition, Tuple[int, Coeff]]] = [{} for _ in paired]
    for mu in columns:
        if mu in galois:
            continue
        a_vec = a_prime_vector(tctx.fock, mu)
        for lam, x_vec, values in zip(paired, x_vecs, row_values):
            v = char_value(tctx, lam, mu, x_vec, a_vec)
            if any(v[1]):
                values[mu] = v
    for mu, (rep, (_, sigma, _)) in galois.items():
        for values in row_values:
            v = values.get(rep)
            if v is not None:
                values[mu] = (v[0], times_root(sigma, v[1]))
    rows: Dict[MultiPartition, CharRow] = {}
    for lam, values in zip(paired, row_values):
        deg_den, deg = values.get(identity_col, (1, (0,)))
        if deg_den != 1 or any(deg[1:]) or not deg[0]:
            raise TableCheckError(f"identity value of {lam!r} is not a nonzero integer: "
                                  f"{value_repr(tctx.fock.axis, deg, deg_den)}")
        if deg[0] < 0:  # resolve the global sign so the degree is positive
            values = {mu: (d, tuple(-x for x in c)) for mu, (d, c) in values.items()}
        row_type = "M" if lam.length % 2 == 0 else "Q"
        rows[lam] = CharRow(lam, row_type, abs(deg[0]),
                            SpinClassFun.from_numerators(gamma, n, *on_one_denominator(values)))
    for lam, rep, _, values in _twisted_rows(gamma, columns, orbits, rows):
        rows[lam] = CharRow(lam, rows[rep].module_type, rows[rep].degree, values)
    _LOG.info("chartable %s n=%d: %d rows, %d paired, %d filled, %d linear characters; "
              "%d columns, %d expanded", gamma.name, n, len(lambdas), len(paired),
              len(lambdas) - len(paired), sum(gamma.degree(i) == 1 for i in range(k)),
              len(columns), len(columns) - len(galois))
    table = CharTable(gamma, n, columns, [rows[lam] for lam in lambdas])
    if check:
        verify_twists(table)
        verify_galois(table)
        verify_table(table)
    return table


def verify_twists(table: CharTable) -> None:
    """chi_{delta_bar.lambda}(D_mu^+) = delta(mu) chi_lambda(D_mu^+) on every
    entry: each row that is not the first of its orbit under Gamma's linear
    characters against its representative's row times delta(mu)
    (`_twisted_rows`).  Reads only the table and Gamma's twist data
    (`GammaData.linear_twists`).  A failure names the row, its
    representative, delta and the first column where they differ."""
    gamma = table.gamma
    axis = gamma.axis
    rows = {row.lam: row for row in table.rows}
    orbits = _twist_orbits(gamma, [row.lam for row in table.rows])
    for lam, rep, d, expect in _twisted_rows(gamma, table.columns, orbits, rows):
        found = rows[lam].values
        if found == expect:
            continue
        zero = (0,) * euler_phi(axis)
        mu = next(mu for mu in table.columns
                  if [x * expect.den for x in found.nums.get(mu, zero)]
                  != [x * found.den for x in expect.nums.get(mu, zero)])
        shown = [value_text(axis, f.nums.get(mu, zero), f.den) for f in (found, expect)]
        raise TableCheckError(
            f"twist symmetry fails at {lam!r}, the g{d} twist of {rep!r}, at {mu!r}: "
            f"{shown[0]}, but delta(mu) times the representative's value is {shown[1]}")


def verify_galois(table: CharTable) -> None:
    """sigma_a(chi_lambda(D_mu^+)) = chi_lambda(D_mu^(a)^+) on every entry:
    each column that is not the first of its Galois orbit against sigma_a
    of its representative's column, row by row (`GammaData.galois`).  Reads
    only the table and Gamma's Galois data.  A failure names the row, both
    columns, a and both values."""
    axis = table.gamma.axis
    zero = (0,) * euler_phi(axis)
    orbits = _galois_orbits(table.gamma, table.columns)
    for row in table.rows:
        f = row.values
        for image, (mu, (a, sigma, _)) in orbits.items():
            found = f.nums.get(image, zero)
            expect = times_root(sigma, f.nums.get(mu, zero))
            if found != expect:
                raise TableCheckError(
                    f"Galois symmetry fails at {row.lam!r}, at {image!r}, the sigma_{a} image "
                    f"of {mu!r}: {value_text(axis, found, f.den)}, but sigma_{a} of the value "
                    f"at {mu!r} is {value_text(axis, expect, f.den)}")


def verify_realization(tctx: TwistContext, lam: MultiPartition, x_vec: FockVector) -> None:
    """X_lambda e^(-[lambda]) = Q_lambda: the row's vertex-operator vector
    (`x_lambda_vector`) against the raising-operator expansion.  The two
    routes meet only in `fock.q_gen`."""
    if not x_vec == raising_expand(tctx.fock, lam):
        raise TableCheckError(f"X_lambda e^(-[lambda]) differs from Q_lambda at {lam!r}")


def verify_table(table: CharTable) -> None:
    """Row orthogonality with the type norms, degree formula, squareness,
    and the unitriangular integral transition of the raising expansion.

    Each pair of rows a <= b is one `classfun.weighted_inner` call, in
    row-major order: one exact integer dot with row b's weighted dual, its
    column of W M_bar^T in the Gram product M W M_bar^T, made once per row,
    so no change to a norm or a zero is too small to see.  The upper
    triangle is the whole check: rho -> rho_bar keeps 2^l(rho) Z_rho and the
    standard weight is real, so the pairing is symmetric, on any values.  A
    pair (a, b) with b < a fails only if (b, a) does, which comes first, so
    the first failure and its message are the full scan's.  A failure shows
    the value in its `Cyc(...)` form (`scalars.value_repr`)."""
    gamma = table.gamma
    if len(table.rows) != len(table.columns):
        raise TableCheckError(
            f"table is not square: {len(table.rows)} rows, {len(table.columns)} columns")
    xi0 = VirtualChar.trivial(gamma)
    axis = gamma.axis
    zero, norm_m, norm_q = (gamma.on_axis(c) for c in (0, 1, 2))
    rows = table.rows
    for a, ra in enumerate(rows):
        norm = norm_m if ra.module_type == "M" else norm_q
        for b, rb in enumerate(rows[a:], a):
            val = weighted_inner(ra.values, rb.values, xi0)
            if val != (norm if b == a else zero):
                raise TableCheckError(f"orthogonality fails at rows {ra.lam!r}, {rb.lam!r}: "
                                      f"{value_repr(axis, val[1], val[0])}")
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
