"""Gamma's character values as `Cyc`, for tests that check the stored
integer form (`GammaData.chars`, canonical numerators on the value axis)
and the code that reads it against `Cyc` arithmetic."""

from spinwreath.scalars import Cyc, cyc_from_numerators


def reference_chars(name):
    """The characters of a built-in Gamma, written out here in `Cyc`:
    chars[i][c] with the built-in's numbering of characters and classes."""
    if name == "trivial":
        return [[Cyc.rational(1)]]
    if name.startswith("cyclic:"):
        k = int(name.split(":")[1])
        return [[Cyc.zeta(k, i * m) for m in range(k)] for i in range(k)]
    if name == "klein4":
        signs = [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]
        return [[Cyc.rational(s) for s in row] for row in signs]
    if name == "quaternion8":
        rows = [[1, 1, 1, 1, 1], [1, 1, 1, -1, -1], [1, 1, -1, 1, -1], [1, 1, -1, -1, 1],
                [2, -2, 0, 0, 0]]
        return [[Cyc.rational(v) for v in row] for row in rows]
    raise ValueError(name)


def cyc_chars(g):
    """g's stored values, each as one `Cyc` (rational ones at order 1)."""
    return [[cyc_from_numerators(g.axis, nums, den) for den, nums in row] for row in g.chars]


def cyc_value(g, coeffs, ci):
    """sum_i coeffs[i] gamma_i(c) at class ci, summed in `Cyc` arithmetic."""
    total = Cyc.rational(0)
    for row, s in zip(cyc_chars(g), coeffs):
        total = total + row[ci] * s
    return total
