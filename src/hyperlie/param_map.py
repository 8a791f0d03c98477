"""Defining relations of the generator variety and the polynomial map to
parameter space.

Generator space for genus g has coordinates x_{i,j} (i in 1..3, j odd in
1..2g-1) of weight i+j.  The relation system also involves the symbols
w_{k,l} (k,l odd in 3..2g-1, symmetric) and the parameters l_s; the
elimination solves each relation for its designated symbol, in the end
expressing every w and every l as a polynomial in x alone.  The map p from
C^{3g} to C^{2g} is its l-components, ``JacobiMap.lambda_exprs`` {"l4": p_4,
...}: that is a ``Poly.substitute`` assignment, so the pullback of a
parameter-space q is ``q.substitute(jm.lambda_exprs, target=jm.ring)``.

Any indexed symbol outside its legal range denotes the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactpoly import Poly, Ring

# Display names for the three coordinate triples used through genus 3.
_X_ALIAS = {
    (1, 1): "x2",
    (2, 1): "x3",
    (3, 1): "x4",
    (1, 3): "y4",
    (2, 3): "y5",
    (3, 3): "y6",
    (1, 5): "z6",
    (2, 5): "z7",
    (3, 5): "z8",
}
_W_ALIAS = {(3, 3): "w6", (3, 5): "w8", (5, 5): "w10"}

PARAM_NAMES = ("alpha", "beta", "gamma1", "gamma2")


def x_name(genus: int, i: int, j: int) -> str:
    if genus <= 3:
        return _X_ALIAS[(i, j)]
    return f"x{i}_{j}"


def w_name(genus: int, k: int, l: int) -> str:
    if k > l:
        k, l = l, k
    if genus <= 3:
        return _W_ALIAS.get((k, l), f"w{k}_{l}")
    return f"w{k}_{l}"


def x_var_list(genus: int) -> list[tuple[str, int]]:
    out = []
    for j in range(1, 2 * genus, 2):
        for i in (1, 2, 3):
            out.append((x_name(genus, i, j), i + j))
    return out


def w_var_list(genus: int) -> list[tuple[str, int]]:
    out = []
    for k in range(3, 2 * genus, 2):
        for l in range(k, 2 * genus, 2):
            out.append((w_name(genus, k, l), k + l))
    return out


def xring(genus: int) -> Ring:
    """The coordinate ring of generator space, at genus 2 with the four
    weight-0 structure parameters of its field family."""
    vs = x_var_list(genus)
    if genus == 2:
        vs = vs + [(p, 0) for p in PARAM_NAMES]
    return Ring(vs)


def relation_ring(genus: int) -> Ring:
    """Ring holding x, w and l symbols together, for the relation system."""
    vs = x_var_list(genus) + w_var_list(genus)
    vs += [(f"l{s}", s) for s in range(4, 4 * genus + 3, 2)]
    return Ring(vs)


class RelVars:
    """Index-guarded accessors: out-of-range symbols are zero."""

    def __init__(self, genus: int, ring: Ring):
        self.genus = genus
        self.ring = ring

    def x(self, i: int, j: int) -> Poly:
        if 1 <= i <= 3 and j % 2 == 1 and 1 <= j <= 2 * self.genus - 1:
            return self.ring.var(x_name(self.genus, i, j))
        return self.ring.zero

    def w(self, k: int, l: int) -> Poly:
        if k > l:
            k, l = l, k
        if k % 2 == 1 and l % 2 == 1 and 3 <= k and l <= 2 * self.genus - 1:
            return self.ring.var(w_name(self.genus, k, l))
        return self.ring.zero

    def lam(self, s: int) -> Poly:
        if s % 2 == 0 and 4 <= s <= 4 * self.genus + 2:
            return self.ring.var(f"l{s}")
        return self.ring.zero


class Relation:
    """One defining relation, stored as LHS - RHS, with its solve target."""

    __slots__ = ("label", "poly", "target")

    def __init__(self, label: str, poly: Poly, target: str):
        self.label = label
        self.poly = poly
        self.target = target  # name of the symbol this relation is solved for


class RelationSet:
    __slots__ = ("genus", "ring", "relations")

    def __init__(self, genus: int, ring: Ring, relations: list[Relation]):
        self.genus = genus
        self.ring = ring
        self.relations = relations

    def __len__(self):
        return len(self.relations)


def generate_relations(genus: int) -> RelationSet:
    """Instantiate the full relation system; count is g(g+3)/2."""
    ring = relation_ring(genus)
    v = RelVars(genus, ring)
    rels = []

    def delta(a, b):
        return 1 if a == b else 0

    # x4 = 6 x2^2 + 4 x_{1,3} + 2 l4
    rels.append(
        Relation(
            "sq1",
            v.x(3, 1) - 6 * v.x(1, 1) ** 2 - 4 * v.x(1, 3) - 2 * v.lam(4),
            "l4",
        )
    )
    # x_{3,k} = 6 x2 x_{1,k} + 6 x_{1,k+2} - 2 w_{3,k}
    for k in range(3, 2 * genus, 2):
        rels.append(
            Relation(
                f"lin{k}",
                v.x(3, k)
                - 6 * v.x(1, 1) * v.x(1, k)
                - 6 * v.x(1, k + 2)
                + 2 * v.w(3, k),
                w_name(genus, 3, k),
            )
        )
    # x3^2 = 4 x2^3 + 4 x2 x_{1,3} - 4 x_{1,5} + 4 w_{3,3} + 4 l4 x2 + 4 l6
    rels.append(
        Relation(
            "sq2",
            v.x(2, 1) ** 2
            - 4 * v.x(1, 1) ** 3
            - 4 * v.x(1, 1) * v.x(1, 3)
            + 4 * v.x(1, 5)
            - 4 * v.w(3, 3)
            - 4 * v.lam(4) * v.x(1, 1)
            - 4 * v.lam(6),
            "l6",
        )
    )
    # x3 x_{2,k} = 4 x2^2 x_{1,k} + 2 x_{1,3} x_{1,k} + 4 x2 x_{1,k+2}
    #             - 2 x_{1,k+4} - 2 x2 w_{3,k} + 4 w_{3,k+2} - 2 w_{5,k}
    #             + 2 l4 x_{1,k} + 2 l8 delta_{3,k}
    for k in range(3, 2 * genus, 2):
        target = "l8" if k == 3 else w_name(genus, 5, k)
        rels.append(
            Relation(
                f"mix{k}",
                v.x(2, 1) * v.x(2, k)
                - 4 * v.x(1, 1) ** 2 * v.x(1, k)
                - 2 * v.x(1, 3) * v.x(1, k)
                - 4 * v.x(1, 1) * v.x(1, k + 2)
                + 2 * v.x(1, k + 4)
                + 2 * v.x(1, 1) * v.w(3, k)
                - 4 * v.w(3, k + 2)
                + 2 * v.w(5, k)
                - 2 * v.lam(4) * v.x(1, k)
                - 2 * v.lam(8) * delta(3, k),
                target,
            )
        )
    # x_{2,j} x_{2,k} = 4 x2 x_{1,j} x_{1,k} + 4 x_{1,k} x_{1,j+2}
    #                   + 4 x_{1,j} x_{1,k+2} + 4 w_{k+2,j+2}
    #                   - 2 x_{1,j} w_{3,k} - 2 x_{1,k} w_{3,j}
    #                   - 2 w_{k,j+4} - 2 w_{j,k+4}
    #                   + 2 l_{j+k+4} (2 d_{j,k} + d_{k,j-2} + d_{j,k-2})
    for k in range(3, 2 * genus, 2):
        for j in range(k, 2 * genus, 2):
            if j == k:
                target = f"l{2 * k + 4}"
            elif j == k + 2:
                target = f"l{2 * k + 6}"
            else:
                target = w_name(genus, k + 4, j)
            rels.append(
                Relation(
                    f"quad{k}_{j}",
                    v.x(2, j) * v.x(2, k)
                    - 4 * v.x(1, 1) * v.x(1, j) * v.x(1, k)
                    - 4 * v.x(1, k) * v.x(1, j + 2)
                    - 4 * v.x(1, j) * v.x(1, k + 2)
                    - 4 * v.w(k + 2, j + 2)
                    + 2 * v.x(1, j) * v.w(3, k)
                    + 2 * v.x(1, k) * v.w(3, j)
                    + 2 * v.w(k, j + 4)
                    + 2 * v.w(j, k + 4)
                    - 2
                    * v.lam(j + k + 4)
                    * (2 * delta(j, k) + delta(k, j - 2) + delta(j, k - 2)),
                    target,
                )
            )
    return RelationSet(genus, ring, rels)


class JacobiMap(NamedTuple):
    """Result of the elimination: every l and w expressed in x alone."""

    genus: int
    ring: Ring  # pure x-ring the expressions live in
    lambda_exprs: dict[str, Poly]  # the map p: "l{s}" -> poly of weight s
    w_exprs: dict[tuple[int, int], Poly]  # (k,l) -> poly of weight k+l
    rels: RelationSet  # the relation system it solved


def _solve_linear(rel: Relation) -> Poly:
    """Solve rel.poly == 0 for its target, which must occur linearly with a
    constant coefficient.  Returns the expression for the target."""
    ring = rel.poly.ring
    target = ring.var(rel.target)
    if rel.poly.degree_in(rel.target) != 1:
        raise ValueError(f"relation {rel.label} is not linear in {rel.target}")
    coeff = rel.poly.partial(rel.target)
    c = coeff.constant_value()  # raises if non-constant
    rest = rel.poly - coeff * target
    return rest * Fraction(-1, c)


def eliminate(rels: RelationSet) -> JacobiMap:
    """Back-substitution solve of the relation system.

    Each relation is solved for its designated symbol (always linear with a
    rational coefficient); solved expressions may mention other l/w symbols,
    which are then resolved by substitution following the dependency order.
    The outcome is independent of the relation processing order.
    """
    ring = rels.ring
    genus = rels.genus
    raw: dict[str, Poly] = {}
    for rel in rels.relations:
        if rel.target in raw:
            raise ValueError(f"two relations target {rel.target}")
        raw[rel.target] = _solve_linear(rel)

    solved_names = set(raw)
    resolved: dict[str, Poly] = {}

    def resolve(name: str, trail: tuple = ()) -> Poly:
        if name in resolved:
            return resolved[name]
        if name in trail:
            raise ValueError(f"cyclic dependency through {name}")
        expr = raw[name]
        pending = expr.variables_used() & solved_names
        if pending:
            assignment = {n: resolve(n, trail + (name,)) for n in pending}
            expr = expr.substitute(assignment)
        resolved[name] = expr
        return expr

    for name in raw:
        resolve(name)

    xr = xring(genus)
    lambda_exprs = {f"l{s}": resolved[f"l{s}"].substitute({}, target=xr)
                    for s in range(4, 4 * genus + 3, 2)}
    w_exprs = {(k, l): resolved[w_name(genus, k, l)].substitute({}, target=xr)
               for k in range(3, 2 * genus, 2) for l in range(k, 2 * genus, 2)}
    return JacobiMap(genus, xr, lambda_exprs, w_exprs, rels)


def relation_residuals(jm: JacobiMap) -> dict[str, Poly]:
    """{label: residual} for every relation of ``jm.rels``, the solved
    expressions substituted into it: the elimination solved the whole
    system exactly when every residual is zero."""
    assignment = dict(jm.lambda_exprs)
    for (k, l), p in jm.w_exprs.items():
        assignment[w_name(jm.genus, k, l)] = p
    return {rel.label: rel.poly.substitute(assignment, target=jm.ring)
            for rel in jm.rels.relations}


def jacobi_map(genus: int) -> JacobiMap:
    """Generate the relations and eliminate them; ``relation_residuals``
    gives the residual of each relation of ``jm.rels`` under the result."""
    return eliminate(generate_relations(genus))
