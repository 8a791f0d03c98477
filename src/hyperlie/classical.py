"""Translation between the classical function notation and the x-ring.

The commutator tables are classically written with symbols P{i}_{k1k2...}
(logarithmic-derivative functions indexed by differentiation multi-indices).
On generator space those symbols become polynomials: depth-1 entries are the
coordinates themselves, the depth-2 symbols with leading index 0 are the
w-expressions, and deeper symbols resolve recursively by applying the odd
fields.  Translating a classical table entry-wise must land exactly on the
computed polynomial table.
"""

from __future__ import annotations

import re

from .exactpoly import Poly
from .derivation import BracketRelation
from .genus_fields import FieldCatalog, coeff_env
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


class SymbolDictionary:
    """Images of the classical symbols as x-ring polynomials."""

    def __init__(self, cat: FieldCatalog):
        self.cat = cat

    def image(self, i: int, ks: tuple[int, ...]) -> Poly:
        ks = tuple(sorted(ks))
        cat = self.cat
        g = cat.genus
        if len(ks) == 0:
            # P2, P3, P4 are the depth-1 coordinate triple.
            if 2 <= i <= 4:
                out = cat.ring.var(x_name(g, i - 1, 1))
            else:
                raise KeyError(f"no image for P{i}")
        elif len(ks) == 1 and 1 <= i <= 3:
            k = ks[0]
            if not (k % 2 == 1 and 1 <= k <= 2 * g - 1):
                raise KeyError(f"index {k} out of range for genus {g}")
            out = cat.ring.var(x_name(g, i, k))
        elif i == 0 and len(ks) == 2:
            out = cat.jm.w_exprs[ks]
        elif len(ks) >= 2:
            # peel the last differentiation index; partials commute
            out = cat.fields[f"L{ks[-1]}"].apply(self.image(i, ks[:-1]))
        else:
            raise KeyError(f"no image for P{i}_{''.join(map(str, ks))}")
        return out

    def image_of_token(self, token: str) -> Poly:
        return self.image(*parse_symbol(token))


def translate_table(cat: FieldCatalog, rows) -> dict[tuple[str, str], dict[str, Poly]]:
    """Translate a classical table into x-ring coefficient polynomials."""
    sd = SymbolDictionary(cat)
    env = coeff_env(cat)
    for _, _, coeffs in rows:
        for text in coeffs.values():
            for t in re.findall(r"P\d(?:_\d+)?", text):
                if t not in env:
                    env[t] = sd.image_of_token(t)
    return {
        (left, right): {
            fname: cat.ring.parse(text, env) for fname, text in coeffs.items()
        }
        for left, right, coeffs in rows
    }


def compare_tables(cat: FieldCatalog, classical_rows) -> dict:
    """Check a classical table against the catalog's actual Lie algebra.

    Each classical row is translated and then verified as a bracket
    identity of the catalog's fields, so a wrong catalog (or a wrong table)
    shows up as a nonzero residual.  Returns {(left, right): {var: residual}}
    for rows that fail; empty means the algebra realises the table exactly.

    For genus 2 pass a catalog with the parameters specialised: the
    classical table is the zero-parameter member of the family.
    """
    translated = translate_table(cat, classical_rows)
    mismatches = {}
    for (left, right), coeffs in translated.items():
        residual = BracketRelation(
            cat.fields[left], cat.fields[right],
            [(c, cat.fields[fname]) for fname, c in sorted(coeffs.items())],
        ).residual()
        if not residual.is_zero():
            mismatches[(left, right)] = dict(residual.action)
    return mismatches
