"""Lifted polynomial vector fields on generator space for genus 1, 2, 3.

The Euler field and the depth-1 field come from closed formulas; every
other field is one ladder completion from its values on (x2, y4, z6)
under the prescribed depth-1 commutator: an odd L_s commutes with L1 and
takes x_{2,s} on x2 and L1(w_{s,j}) on the other x_{1,j}, an even field
its displayed seeds.  Genus 1 and 2 read their seeds off the displayed
action grids, whose other entries are checks.  Parameter symbols
l4, l6, ... appearing in displayed actions are always replaced by their
expressions in x, so every field is a genuine derivation of the x-ring.

Building judges no data: the elimination, the seeds and the auxiliary
definitions are taken as displayed, and each identity they must satisfy
is a suite entry (``map.relations_vanish``, ``fields.table``,
``fields.aux_match``), so a wrong datum fails a named entry with its
residual.

Fields are keyed by name on both spaces, a weight read off ``.weight``.
``structure`` takes every bracket the suite takes (the ledger); its other
readers compare coefficients with it (``coefficient_residuals``).

The genus-2 catalog carries four weight-0 parameters; brackets and
projectability hold identically in them, and a linear solve on the
ledger's coefficients pins the normalised member of the family, which the
same construction builds with every parameter read as 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

from . import reference
from .derivation import BracketRelation, Derivation, combination, ladder_complete
from .exactpoly import Poly, PolyMatrix, Ring, det_minor_expansion, parity, solve_unique
from .param_map import PARAM_NAMES, JacobiMap, RelVars, jacobi_map, w_name, x_name


def field_names(genus: int) -> list[str]:
    """Catalog field names in ascending weight order."""
    ks = sorted(list(range(0, 4 * genus - 1, 2)) + list(range(1, 2 * genus, 2)))
    return [f"L{k}" for k in ks]


def build_euler(genus: int, ring: Ring) -> Derivation:
    """The Euler field: each coordinate times its weight."""
    action = {}
    for j in range(1, 2 * genus, 2):
        for i in (1, 2, 3):
            name = x_name(genus, i, j)
            action[name] = (i + j) * ring.var(name)
    return Derivation("L0", ring, action, weight=0)


def build_depth1(genus: int, ring: Ring) -> Derivation:
    """The weight-1 field, with the out-of-range guard x_{2,2g+1} = 0."""
    x = RelVars(genus, ring).x
    action = {}
    for j in range(1, 2 * genus, 2):
        action[x_name(genus, 1, j)] = x(2, j)
        action[x_name(genus, 2, j)] = x(3, j)
        action[x_name(genus, 3, j)] = 4 * (
            2 * x(1, 1) * x(2, j) + x(2, 1) * x(1, j) + x(2, j + 2)
        )
    return Derivation("L1", ring, action, weight=1)


def depth1_commutator_coeffs(genus: int, ring: Ring, k: int) -> list[Poly]:
    """Coefficients of [L1, L_{2k'}] over the odd fields (L1, L3, ...).

    For the even field of weight 2k' = k the coefficient on the odd field of
    weight 2m+1 is x_{1, 2(k/2 - m) - 1} with the usual guard, except that
    the diagonal position m = k/2 carries -1.
    """
    half = k // 2
    x = RelVars(genus, ring).x
    return [ring.const(-1) if m == half else x(1, 2 * (half - m) - 1)
            for m in range(genus)]


class FieldCatalog(NamedTuple):
    """All constructed fields for one genus, plus the shared context."""

    genus: int
    ring: Ring
    fields: dict[str, Derivation]
    jm: JacobiMap  # jm.lambda_exprs is the map p
    aux: dict[str, Poly]
    param_values: tuple = ()  # (name, value) pairs the parameters read as

    @property
    def names(self) -> list[str]:
        return field_names(self.genus)

    def odd_fields(self) -> list[Derivation]:
        return [self.fields[f"L{s}"] for s in range(1, 2 * self.genus, 2)]


# -- coefficient environment ---------------------------------------------------


def coeff_env(cat: FieldCatalog) -> dict:
    """What displayed coefficients' l-, aux- and parameter names stand for."""
    env = dict(cat.jm.lambda_exprs)
    env.update(cat.aux)
    env.update(cat.param_values)
    return env


def parse_coeff(cat: FieldCatalog, text: str) -> Poly:
    """Read a displayed coefficient into the catalog's ring: l-, aux- and
    parameter names read as their ``coeff_env`` values, so the zero
    catalog's hatted terms and table coefficients read its parameters as 0."""
    return cat.ring.parse(text, coeff_env(cat))


def read_relations(
    fields: dict[str, Derivation], rows, env: dict
) -> list[BracketRelation]:
    """Displayed rows ``(left, right, {field: text})`` as the identities
    [left, right] = sum of text * field of ``fields``, a name -> field
    mapping on one ring: a catalog's fields on generator space, or the
    parameter-space fields.  Every text is read by that ring's
    ``parse(text, env)``; the expansion is in field-name order."""
    return [
        BracketRelation(fields[left], fields[right], [
            (fields[left].ring.parse(text, env), fields[f])
            for f, text in sorted(coeffs.items())
        ])
        for left, right, coeffs in rows
    ]


# -- auxiliary polynomials -----------------------------------------------------


def build_aux(genus: int, ring: Ring, w_exprs, fields) -> dict[str, Poly]:
    """Auxiliary polynomials: every w of the elimination by ``w_name``,
    every other symbol from the first of its defining field applications
    in ``reference.AUX_DEFS``.  Whether the other definitions agree is
    decided by the suite, not here."""
    aux = {w_name(genus, *kl): p for kl, p in w_exprs.items()}
    for name, fname, argname in reference.AUX_DEFS.get(genus, ()):
        if name not in aux:
            arg = aux[argname] if argname in aux else ring.var(argname)
            aux[name] = fields[fname].apply(arg)
    return aux


# -- catalog construction ------------------------------------------------------


def x1_coordinates(genus: int) -> list[str]:
    """The depth-1 coordinates x_{1,j}: where a ladder's seeds sit."""
    return [x_name(genus, 1, j) for j in range(1, 2 * genus, 2)]


def seed_texts(genus: int) -> dict[str, dict[str, str]]:
    """{Lk: {x_{1,j}: displayed text}} for every even field but L0: genus 3
    displays its seeds apart, genus 1 and 2 in their full action grids."""
    if genus == 3:
        return reference.EVEN_SEEDS_G3
    evens = [n for n in field_names(genus) if n != "L0" and int(n[1:]) % 2 == 0]
    grids = reference.FIELD_ACTIONS[genus]
    return {n: {v: grids[n][v] for v in x1_coordinates(genus)} for n in evens}


def build_by_ladder(cat: FieldCatalog, k: int, seeds: dict) -> Derivation:
    """The field of weight k from its values on the x_{1,j} under the
    prescribed [L1, Lk], walking x_{1,j} -> x_{2,j} -> x_{3,j}: zero for
    odd k, so an odd field reads no other, for even k the odd fields times
    ``depth1_commutator_coeffs``."""
    g = cat.genus
    terms = [] if k % 2 else zip(depth1_commutator_coeffs(g, cat.ring, k), cat.odd_fields())
    rhs = combination(list(terms), cat.ring, name=f"rhs{k}")
    steps = [(x_name(g, i, j), x_name(g, i + 1, j))
             for j in range(1, 2 * g, 2) for i in (1, 2)]
    return ladder_complete(f"L{k}", seeds, cat.fields["L1"], rhs, steps, weight=k)


@lru_cache(maxsize=None)
def _catalog_cached(genus: int, params: str | None) -> FieldCatalog:
    """``catalog``'s one cache.  ``params`` None is the parameter-free base
    that every member of the genus shares: the elimination, ring, map, L0,
    L1, the other odd fields and aux; a member adds its even fields to it.
    So one ``cache_clear`` resets every build."""
    if params is None:
        jm = jacobi_map(genus)
        ring, L1 = jm.ring, build_depth1(genus, jm.ring)
        base = FieldCatalog(genus, ring, {"L0": build_euler(genus, ring), "L1": L1},
                            jm, {})
        for s in range(3, 2 * genus, 2):
            seeds = {x_name(genus, 1, j): L1.apply(jm.w_exprs[min(s, j), max(s, j)])
                     for j in range(3, 2 * genus, 2)}
            seeds[x_name(genus, 1, 1)] = ring.var(x_name(genus, 2, s))
            base.fields[f"L{s}"] = build_by_ladder(base, s, seeds)
        return base._replace(aux=build_aux(genus, ring, jm.w_exprs, base.fields))
    base = _catalog_cached(genus, None)
    fields = dict(base.fields)
    values = tuple((p, 0) for p in PARAM_NAMES) if params == "zero" else ()
    cat = base._replace(fields=fields, param_values=values)
    for name, texts in seed_texts(genus).items():
        seeds = {v: parse_coeff(cat, text) for v, text in texts.items()}
        fields[name] = build_by_ladder(cat, int(name[1:]), seeds)
    for name, extras in (reference.HATTED_G2 if genus == 2 else {}).items():
        d = fields[name]
        for coeff_text, fname in extras:
            d = d + fields[fname].scale(parse_coeff(cat, coeff_text))
        fields[name] = d.rename(name, weight=fields[name].weight)
    return cat


def catalog(genus: int, params: str = "symbolic") -> FieldCatalog:
    """Build (and cache) the full field catalog for one genus.

    ``params``, "symbolic" or "zero", matters only at genus 2: "symbolic"
    keeps the four structure constants as weight-0 variables, "zero" is the
    normalised member: the same even-field construction with
    ``param_values`` reading each parameter as 0, on the same base (map,
    odd fields, aux).  Genus 1 and 3 have no parameters: one catalog.
    """
    if genus not in (1, 2, 3):
        raise ValueError("catalogs exist for genus 1, 2, 3")
    if params not in ("symbolic", "zero"):
        raise ValueError("params must be 'symbolic' or 'zero'")
    if genus != 2:
        params = "symbolic"
    return _catalog_cached(genus, params)


# -- bracket tables -------------------------------------------------------------


def euler_relations(fields: dict[str, Derivation]) -> list[BracketRelation]:
    """[L0, Lk] = k Lk for every Lk of the name -> field mapping ``fields``
    but L0, k its weight, in weight order, on either space."""
    L0 = fields["L0"]
    return [BracketRelation(L0, fields[n], [(L0.ring.const(fields[n].weight), fields[n])])
            for n in sorted(fields, key=lambda n: fields[n].weight) if n != "L0"]


def table_relations(cat: FieldCatalog) -> list[BracketRelation]:
    """Every displayed commutator identity for the catalog's genus."""
    return read_relations(cat.fields, reference.BRACKET_TABLE[cat.genus], coeff_env(cat))


def _exponents(weights: Sequence[int], weight: int, degree: int) -> list[tuple]:
    """Exponent tuples of total ``weight``, their weight-0 part of degree <= ``degree``."""
    if not weights:
        return [()] if weight == 0 else []
    w = weights[0]
    return [(e, *tail) for e in range(degree + 1 if w == 0 else weight // w + 1)
            for tail in _exponents(weights[1:], weight - e * w, degree - (0 if w else e))]


def structure_functions(fields: dict[str, Derivation], a: str, b: str) -> dict[str, Poly] | str:
    """The c_k of [La, Lb] = sum_k c_k Lk by ``solve_unique``, or its text,
    for a name -> field mapping on either space: c_k spans every monomial
    of weight wt(a) + wt(b) - wt(k), weight-0 parameters up to their total
    degree in the bracket, and each monomial of each variable's image is
    one equation."""
    ring, names = fields[a].ring, sorted(fields, key=lambda n: fields[n].weight)
    bracket = fields[a].bracket(fields[b])
    degree = max((sum(e for e, w in zip(ring.unpack(m), ring.weights) if not w)
                  for p in bracket.action.values() for m in p.num), default=0)
    unknowns = [(k, e) for k in names for e in _exponents(
        ring.weights, fields[a].weight + fields[b].weight - fields[k].weight, degree)]
    rows: dict[tuple, dict] = {}  # the bracket is the right side, column len(unknowns)
    columns = [(fields[k], ring.pack(e)) for k, e in unknowns] + [(bracket, 0)]
    for col, (L, m) in enumerate(columns):
        for v, p in L.action.items():
            for t, c in p.num.items():
                rows.setdefault((v, m + t), {})[col] = Fraction(c, p.den)
    solution = solve_unique(rows.values(), len(unknowns))
    if isinstance(solution, str):
        return solution
    return {k: c for k in names if (c := Poly(ring, {
        e: x for (j, e), x in zip(unknowns, solution) if j == k}))}


def structure(fields: dict[str, Derivation], rels) -> tuple[dict, dict, tuple | None]:
    """(residuals, exp, problem) of a name -> field mapping on either space
    and its displayed relations: every relation's residual by label;
    exp[a, b] = {k: c_ab^k} with [La, Lb] = sum_k c_ab^k Lk and c_ba = -c_ab,
    the coefficients of each relation that holds exactly, every other pair
    solved by ``structure_functions`` in weight order up to the first
    without a unique solution, whose problem item ``("[La,Lb]", text)`` is
    ``problem`` (else None)."""
    residuals = {rel.label: rel.residual() for rel in rels}
    exp = {(rel.left.name, rel.right.name): {Z.name: c for c, Z in rel.expansion}
           for rel in rels if residuals[rel.label].is_zero()}
    problem = None
    for a, b in combinations(sorted(fields, key=lambda n: fields[n].weight), 2):
        if (a, b) not in exp and (b, a) not in exp:
            solved = structure_functions(fields, a, b)
            if isinstance(solved, str):
                problem = (f"[{a},{b}]", solved)
                break
            exp[a, b] = solved
    exp.update({(b, a): {k: -c for k, c in cs.items()} for (a, b), cs in list(exp.items())})
    return residuals, exp, problem


def coefficient_residuals(rel: BracketRelation, exp: dict) -> dict[str, Poly]:
    """{k: c_ab^k - c'_k} of a displayed row [La, Lb] = sum_k c'_k Lk against
    the ledger ``exp`` of ``structure``, applying no field: as the Lk are
    independent, the row holds exactly when every residual is zero."""
    out = dict(exp[rel.left.name, rel.right.name])
    for c, Z in rel.expansion:
        out[Z.name] = out.get(Z.name, rel.left.ring.zero) - c
    return out


# -- action matrix and determinant factor ---------------------------------------


def _coordinates(cat: FieldCatalog) -> list[str]:
    """The generator coordinates in ring order: the columns of Tcal."""
    return [v for v in cat.ring.names if v not in PARAM_NAMES]


def build_Tcal(cat: FieldCatalog) -> PolyMatrix:
    """The 3g x 3g matrix of field actions.

    Rows are the catalog fields in ascending weight order; columns are the
    generator coordinates in ring order.  This row order reproduces the
    stated determinant factors 4, -16, -64.
    """
    cols = _coordinates(cat)
    rows = [
        [cat.fields[name].on(c) for c in cols] for name in cat.names
    ]
    return PolyMatrix(cat.ring, rows)


def pullback_T(cat: FieldCatalog, T: PolyMatrix) -> PolyMatrix:
    """The parameter-space matrix T with the map substituted entry-wise."""
    return T.map(lambda q: q.substitute(cat.jm.lambda_exprs, target=cat.ring))


def block_sign(cat: FieldCatalog) -> int:
    """sigma * epsilon of ``det_factor_residuals``: the parities of the row
    order with odd fields first and of the column order with K moved last."""
    g = cat.genus
    names = cat.names
    odd = [i for i, n in enumerate(names) if cat.fields[n].weight % 2]
    even = [i for i, n in enumerate(names) if not cat.fields[n].weight % 2]
    return parity(odd + even) * parity(list(range(g, 3 * g)) + list(range(g)))


def det_factor_residuals(cat: FieldCatalog, factor) -> tuple[Poly, Poly]:
    """Reduce det Tcal = factor * det(T o p) to two small determinants.

    J_p is the Jacobian of the map over the Tcal columns and E_K the unit
    columns of K = the first g coordinates.  The odd rows of
    Tcal . [J_p^T | E_K] are [0 | A] (A: odd-field actions on K) and the
    even rows [T o p | *]: that block form is exactly L_odd(p_j) = 0 and
    L_even(p_j) = p*(L^l l_j), the ``fields.projectability.*`` entries
    (the zero genus-2 member is the symbolic one at parameters 0).  So
    det Tcal * epsilon * det J_minor = sigma * det A * det(T o p), with
    J_minor = J_p on the other 2g columns, and given det J_minor != 0 the
    claim is det A = sigma * epsilon * factor * det J_minor.

    Returns (det A - sigma * epsilon * factor * det J_minor, det J_minor):
    the first must vanish, and the second must not.
    """
    cols = _coordinates(cat)
    g, ring = cat.genus, cat.ring
    A = PolyMatrix(ring, [[L.on(c) for c in cols[:g]] for L in cat.odd_fields()])
    minor = det_minor_expansion(PolyMatrix(ring, [
        [comp.partial(c) for c in cols[g:]] for comp in cat.jm.lambda_exprs.values()]))
    return det_minor_expansion(A) - minor * (block_sign(cat) * factor), minor


# -- genus-2 normalization -------------------------------------------------------


def solve_genus2_normalization(cat: FieldCatalog, exp: dict) -> dict[str, Fraction] | str:
    """Find the parameter values forcing the depth-1 commutators into the
    prescribed lower-triangular form, or say why no unique values do.

    Every ``coefficient_residuals`` r of a row against the ledger ``exp``
    is linear in the parameters p, so r = r|_{p=0} + sum_p p * dr/dp, and
    each monomial m of the other variables gives one equation
    sum_p (dr/dp)[m] * p = -r|_{p=0}[m]."""
    if cat.genus != 2:
        raise ValueError("normalization is a genus-2 computation")
    rows: dict[tuple, dict] = {}
    rels = read_relations(cat.fields, reference.G2_NORMALIZATION, coeff_env(cat))
    for r, rel in enumerate(rels):
        for k, poly in coefficient_residuals(rel, exp).items():
            parts = [poly.partial(p) for p in PARAM_NAMES]
            if any(q.variables_used() & set(PARAM_NAMES) for q in parts):
                return "normalization residual is nonlinear in the parameters"
            const = poly.substitute(dict.fromkeys(PARAM_NAMES, 0))
            for i, q in enumerate([*parts, -const]):
                for m, c in q.terms.items():
                    rows.setdefault((r, k, m), {})[i] = c
    solution = solve_unique(rows.values(), len(PARAM_NAMES))
    if isinstance(solution, str):
        return {"no solution": "inconsistent normalization conditions",
                "not unique": "normalization solution is not unique"}[solution]
    return dict(zip(PARAM_NAMES, solution))
