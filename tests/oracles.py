"""Second algorithms the tests check the runtime against.

Nothing in the package calls these: the suite computes R from the Bezout
matrix by minor expansion, so the Sylvester resultant and the naive
cofactor determinant live here, as independent oracles for the
determinant routines and for R.  The package only writes the JSON form of
a polynomial, so its reader lives here too, for the round-trip test.  The
suite decides the genus-3 structure matrix M on the parameter-space
structure functions; its rows as bracket identities, expanded field by
field, are the independent check.
"""

from fractions import Fraction

from hyperlie import Poly, PolyMatrix, RingMismatchError
from hyperlie.derivation import BracketRelation
from hyperlie.exactpoly import det_bareiss
from hyperlie.lambda_space import M_PAIRS, build_M


def poly_from_json_obj(ring, obj) -> Poly:
    """The polynomial of ring whose ``Poly.to_json_obj`` form is obj."""
    out = {}
    for t in obj["terms"]:
        exps = [0] * len(ring.vars)
        for name, e in t["m"].items():
            exps[ring.index(name)] = int(e)
        out[tuple(exps)] = Fraction(t["c"])
    return Poly(ring, out)


def det_cofactor(matrix: PolyMatrix):
    """Naive recursive cofactor expansion along the first row."""
    if not matrix.is_square:
        raise ValueError("determinant requires a square matrix")
    ring = matrix.ring

    def rec(rows):
        n = len(rows)
        if n == 0:
            return ring.one
        if n == 1:
            return rows[0][0]
        total = ring.zero
        first = rows[0]
        rest = rows[1:]
        for j, a in enumerate(first):
            if a.is_zero():
                continue
            sub = [row[:j] + row[j + 1 :] for row in rest]
            term = a * rec(sub)
            total = total + term if j % 2 == 0 else total - term
        return total

    return rec([list(r) for r in matrix.rows])


def sylvester_matrix(f, h, var) -> PolyMatrix:
    """The Sylvester matrix of f and h with respect to one variable.

    Rows built from f's coefficients come first; this fixes the sign
    convention of the resultant.
    """
    if f.ring != h.ring:
        raise RingMismatchError("polynomials belong to different rings")
    if f.is_zero() or h.is_zero():
        raise ValueError("resultant of zero polynomial")
    ring = f.ring
    fc = f.coeffs_in(var)
    hc = h.coeffs_in(var)
    m = max(fc)
    n = max(hc)
    if m < 1 or n < 1:
        raise ValueError("both polynomials must have positive degree in var")
    size = m + n
    zero = ring.zero
    rows = []
    for r in range(n):
        row = [zero] * size
        for k in range(m + 1):
            row[r + k] = fc.get(m - k, zero)
        rows.append(row)
    for r in range(m):
        row = [zero] * size
        for k in range(n + 1):
            row[r + k] = hc.get(n - k, zero)
        rows.append(row)
    return PolyMatrix(ring, rows)


def resultant(f, h, var):
    """Resultant of f and h with respect to var (Sylvester determinant)."""
    return det_bareiss(sylvester_matrix(f, h, var))


def m_relation_rows(model, fields) -> list[BracketRelation]:
    """The ten claimed identities [L_{2i}, L_{2j}] = M-row . (L0..L10)."""
    M = build_M(model)
    ordered = [fields[k] for k in sorted(fields)]
    return [BracketRelation(fields[i], fields[j], list(zip(M.rows[r], ordered)),
                            label=f"[L{i},L{j}]") for r, (i, j) in enumerate(M_PAIRS)]
