"""Second algorithms the tests check the runtime against.

Nothing in the package calls these: the suite computes R from the Bezout
matrix by minor expansion, so the Sylvester resultant and the naive
cofactor determinant live here, as independent oracles for the
determinant routines and for R.  The package only writes the JSON form of
a polynomial, so its reader lives here too, for the round-trip test.  The
suite decides the genus-3 structure matrix M on the parameter-space
structure functions; its rows as bracket identities, expanded field by
field, are the independent check.  The suite rests the Jacobi identity on
the structure-function ledger with det Tcal != 0; ``structure_jacobi``
computes it on the structure functions, sum by sum.
"""

from fractions import Fraction
from itertools import combinations

from hyperlie import Poly, PolyMatrix, RingMismatchError
from hyperlie.derivation import BracketRelation, linear_sum
from hyperlie.exactpoly import det_bareiss
from hyperlie.lambda_space import M_PAIRS, build_M


def poly_from_json_obj(ring, obj) -> Poly:
    """The polynomial of ring whose ``Poly.to_json_obj`` form is obj."""
    out = {}
    for t in obj["terms"]:
        exps = [0] * len(ring.names)
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
    return [BracketRelation(fields[f"L{i}"], fields[f"L{j}"],
                            list(zip(M.rows[r], fields.values())))
            for r, (i, j) in enumerate(M_PAIRS)]


def structure_jacobi(cat, expansions):
    """(label, S_m) for every triple a < b < c and field m with nonzero
    S_m = sum over cyclic (a, b, c) of La(c_bc^m) + sum_k c_bc^k c_ak^m.
    As [La, Lb] = sum_k c_ab^k Lk, [La, [Lb, Lc]] + cyc = sum_m S_m Lm, so
    no S_m proves the identity.  Each S_m is one ``linear_sum``."""
    fields = cat.fields
    for a, b, c in combinations(cat.names, 3):
        sums = {m: ([], []) for m in cat.names}  # m -> (applied, products)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for k, t in expansions[y, z].items():
                sums[k][0].append((fields[x], t))
                for m, u in expansions.get((x, k), {}).items():
                    sums[m][1].append((t, u))
        for m, (applied, products) in sums.items():
            if (applied or products) and (s := linear_sum(cat.ring, applied, products)):
                yield f"jacobi({a},{b},{c}) on {m}", s
