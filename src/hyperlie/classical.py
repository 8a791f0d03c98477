"""Translation between the classical function notation and the x-ring.

The commutator tables are classically written with symbols P{i}_{k1k2...}
(logarithmic-derivative functions indexed by differentiation multi-indices).
On generator space those symbols become polynomials: depth-1 entries are the
coordinates themselves, the depth-2 symbols with leading index 0 are the
w-expressions, and deeper symbols resolve recursively by applying the odd
fields.  Translated entry-wise, a classical table must land exactly on the
structure functions of the computed Lie algebra, which ``compare_tables``
reads and does not recompute: it brackets no fields.
"""

from __future__ import annotations

import re

from .derivation import combination
from .exactpoly import Poly
from .genus_fields import FieldCatalog, coeff_env, read_relations
from .param_map import x_name

_P_TOKEN = re.compile(r"^P(\d)(?:_(\d+))?$")


def parse_symbol(token: str) -> tuple[int, tuple[int, ...]]:
    """Split a classical symbol token into (lead index, sorted multi-index)."""
    m = _P_TOKEN.match(token)
    if not m:
        raise KeyError(f"not a classical symbol: {token!r}")
    i = int(m.group(1))
    ks = tuple(sorted(int(d) for d in (m.group(2) or "")))
    return i, ks


def symbol_image(cat: FieldCatalog, i: int, ks: tuple[int, ...]) -> Poly:
    """Image of the classical symbol P{i}_{ks} as an x-ring polynomial."""
    ks = tuple(sorted(ks))
    g = cat.genus
    if len(ks) == 0:
        # P2, P3, P4 are the depth-1 coordinate triple.
        if 2 <= i <= 4:
            return cat.ring.var(x_name(g, i - 1, 1))
        raise KeyError(f"no image for P{i}")
    if len(ks) == 1 and 1 <= i <= 3:
        k = ks[0]
        if not (k % 2 == 1 and 1 <= k <= 2 * g - 1):
            raise KeyError(f"index {k} out of range for genus {g}")
        return cat.ring.var(x_name(g, i, k))
    if i == 0 and len(ks) == 2:
        return cat.jm.w_exprs[ks]
    if len(ks) >= 2:
        # peel the last differentiation index; partials commute
        return cat.fields[f"L{ks[-1]}"].apply(symbol_image(cat, i, ks[:-1]))
    raise KeyError(f"no image for P{i}_{''.join(map(str, ks))}")


def symbol_env(cat: FieldCatalog, rows) -> dict:
    """``coeff_env(cat)`` plus the image of every classical symbol that the
    rows' coefficient texts name: the environment they are read in."""
    env = coeff_env(cat)
    for _, _, coeffs in rows:
        for text in coeffs.values():
            for t in re.findall(r"P\d(?:_\d+)?", text):
                if t not in env:
                    env[t] = symbol_image(cat, *parse_symbol(t))
    return env


def compare_tables(cat: FieldCatalog, classical_rows, exp) -> dict:
    """Check a classical table against the catalog's actual Lie algebra.

    ``exp`` holds the structure functions {(a, b): {k: c_ab^k}} of
    ``genus_fields.structure`` for every pair: exact identities
    [La, Lb] = sum_k c_ab^k Lk of the family the catalog belongs to, which
    hold on its fields once read at its parameter values.  A classical row
    [La, Lb] = sum_k c'_k Lk, its symbols standing for their images, then
    has the residual sum_k (c_k - c'_k) Lk: one ``combination`` of the
    nonzero differences and no bracket.  Returns {(left, right): {var:
    residual}} for rows that fail; empty means the algebra realises the
    table exactly.

    For genus 2 pass ``catalog(2, "zero")``: the classical table is the
    zero-parameter member of the family, and each c_k is read at the
    catalog's ``param_values``.
    """
    values = dict(cat.param_values)
    mismatches = {}
    for rel in read_relations(cat.fields, classical_rows, symbol_env(cat, classical_rows)):
        pair = (rel.left.name, rel.right.name)
        diff = {k: c.substitute(values) if values else c for k, c in exp[pair].items()}
        for c, Z in rel.expansion:
            diff[Z.name] = diff.get(Z.name, 0) - c
        terms = [(c, cat.fields[k]) for k, c in diff.items() if c]
        if terms and not (residual := combination(terms, cat.ring)).is_zero():
            mismatches[pair] = dict(residual.action)
    return mismatches
