"""Constructions on the curve parameter space.

For genus g the curve is Y^2 = f(X) with f monic of degree 2g+1 and no
X^{2g} term; the parameters l4, l6, ..., l{4g+2} carry their index as
weight.  This module builds f, the discriminant resultant R, the symmetric
matrix T of pairwise field actions (a scaled Schur complement of R's Bezout
matrix), the fields L0, L2, ..., L{4g-2}, which are T's rows, and (genus 3)
the displayed structure matrix M of their brackets.  M is read as data:
the suite compares each row with the structure functions that
``genus_fields.structure`` decides on this space, so no bracket is
expanded against M here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import reference
from .derivation import Derivation, linear_sum
from .exactpoly import Poly, PolyMatrix, Ring, det_minor_expansion


def lambda_indices(genus: int) -> list[int]:
    return list(range(4, 4 * genus + 3, 2))


class CurveModel:
    """Parameter ring and curve polynomial data for one genus."""

    def __init__(self, genus: int):
        if genus < 1:
            raise ValueError("genus must be at least 1")
        self.genus = genus
        self.indices = lambda_indices(genus)
        self.ring = Ring([(f"l{s}", s) for s in self.indices])
        # X has weight 2, making f homogeneous of weight 4g+2.
        self.fring = Ring([("X", 2)] + [(f"l{s}", s) for s in self.indices])

    def lam(self, s: int, ring: Ring | None = None) -> Poly:
        """l_s as a polynomial; zero whenever s is outside the model's range."""
        ring = ring or self.ring
        if s in self.indices:
            return ring.var(f"l{s}")
        return ring.zero


def build_f(model: CurveModel) -> Poly:
    """The monic curve polynomial f(X) with no X^{2g} term."""
    g = model.genus
    ring = model.fring
    X = ring.var("X")
    f = X ** (2 * g + 1)
    for k, s in enumerate(model.indices):
        # l4 multiplies X^{2g-1}, l6 multiplies X^{2g-2}, ...
        f = f + model.lam(s, ring) * X ** (2 * g - 1 - k)
    return f


def bezout_matrix(ring: Ring, a: list[Poly]) -> PolyMatrix:
    """The n x n Bezout matrix of the monic f = sum a[i] X^i, n = len(a) - 1,
    and df/dX, signed so that its determinant is their resultant.

    Entry (i, j) is the coefficient of x^i y^j in
    (f(x) f'(y) - f(y) f'(x)) / (x - y), and the determinant of that matrix
    is (-1)^(n(n-1)/2) Res(f, f') (Cox, Little & O'Shea, *Using Algebraic
    Geometry*, GTM 185, ch. 3); the first row carries the sign.
    """
    n = len(a) - 1
    b = [(i + 1) * a[i + 1] for i in range(n)] + [ring.zero]  # f' = sum b[i] X^i

    def entry(i, j):
        pq = [(i + j + 1 - q, q) for q in range(min(i, j) + 1) if i + j + 1 - q <= n]
        return linear_sum(ring, products=[*((a[p], b[q]) for p, q in pq),
                                          *((-a[q], b[p]) for p, q in pq)])

    rows = [[entry(i, j) for j in range(n)] for i in range(n)]
    if n * (n - 1) // 2 % 2:
        rows[0] = [-e for e in rows[0]]
    return PolyMatrix(ring, rows)


def bezout_f(model: CurveModel) -> PolyMatrix:
    """The (2g+1)-square Bezout matrix of f and df/dX, whose determinant is R.

    Its entries live in the parameter ring: the coefficient of X^i in f is
    l_{4g+2-2i}, so no X column is carried along.
    """
    n = 2 * model.genus + 1
    lead = 4 * model.genus + 2
    return bezout_matrix(
        model.ring, [model.lam(lead - 2 * i) for i in range(n)] + [model.ring.one]
    )


def schur_identity(T: PolyMatrix, B: PolyMatrix):
    """({label: n*T_ij + 2*S_{2g-1-i,2g-1-j}}, (-1)^g 4^g/n, or None unless n
    is a nonzero constant) for S = n*B0[:2g, :2g] - b*b^T, where B0, the
    Bezout matrix B with its first-row sign undone, has last row (b, n)."""
    m = B.nrows - 1
    a, sign = list(B.rows), (-1) ** (m // 2)
    if sign < 0:  # bezout_matrix negates row 0 when m(m+1)/2 = g(2g+1) is odd
        a[0] = [-e for e in a[0]]
    b, n = a[m][:m], a[m][m]
    n2, b2 = 2 * n, [-2 * e for e in b]
    residuals = {f"n*T({i + 1},{j + 1}) + 2*S({m - i},{m - j})": linear_sum(
        T.ring, products=[(n, T.entry(i, j)), (n2, a[m - 1 - i][m - 1 - j]),
                          (b2[m - 1 - i], b[m - 1 - j])])
        for i in range(m) for j in range(m)}
    corner = n.constant_value() if n.is_homogeneous_of(0) else 0
    return residuals, Fraction(sign * 4 ** (m // 2), corner) if corner else None


def discriminant_R(model: CurveModel) -> Poly:
    """Resultant of f and df/dX, eliminating X; cut out by the singular locus.

    The determinant of the (2g+1)-square Bezout matrix by minor expansion
    (Gentleman & Johnson, ACM TOMS 2(3), 1976).  Against the (4g+1)-square
    Sylvester matrix, genus 3 takes 9 ms instead of 0.16 s and genus 4
    0.4 s instead of 21 s (2-CPU host, Python 3.11).
    """
    return det_minor_expansion(bezout_f(model))


def t_entry(model: CurveModel, k: int, m: int) -> Poly:
    """Entry T_{2k,2m} of the pairwise-action matrix (half-index form)."""
    g = model.genus
    p = 2 * (k + m) * model.lam(2 * k + 2 * m)
    for s in range(2, k):
        p = p + 2 * (k + m - 2 * s) * model.lam(2 * s) * model.lam(2 * (k + m - s))
    p = p - Fraction(2 * k * (2 * g - m + 1), 2 * g + 1) * model.lam(2 * k) * model.lam(
        2 * m
    )
    return p


def build_T(model: CurveModel) -> PolyMatrix:
    """The symmetric 2g x 2g matrix with entries T_{2k,2m}."""
    r = range(1, 2 * model.genus + 1)
    return PolyMatrix(model.ring, [[t_entry(model, k, m) for m in r] for k in r])


def all_L(T: PolyMatrix) -> dict[int, Derivation]:
    """The parameter-space fields {k: L_k}, k = 0, 2, ..., 4g-2: row k/2 of
    T is L_k, acting by L_k(l_{2s}) = T_{k+2, 2s-2} on T's ring variables."""
    return {2 * i: Derivation(f"L{2 * i}", T.ring, dict(zip(T.ring.names, row)),
                              weight=2 * i) for i, row in enumerate(T.rows)}


# -- genus-3 commutator structure matrix -------------------------------------

# Row order of the 10 bracket pairs [L_{2i}, L_{2j}], i < j.
M_PAIRS = list(combinations(range(2, 11, 2), 2))


def build_M(model: CurveModel) -> PolyMatrix:
    """The 10x6 matrix M with bracket rows [L_{2i}, L_{2j}] = M . (L0..L10)."""
    if model.genus != 3:
        raise ValueError("the structure matrix is a genus-3 object")
    scale = Fraction(2, 7)
    rows = [
        [model.ring.parse(entry) * scale for entry in row]
        for row in reference.STRUCTURE_MATRIX
    ]
    return PolyMatrix(model.ring, rows)
