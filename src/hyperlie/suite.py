"""Verification suites: every identity as a report entry, exact or randomized.

Exact mode proves each identity by structural polynomial equality.  Pit mode
replaces the zero-tests with evaluation at random rational points
(Schwartz-Zippel: a nonzero polynomial of total degree d vanishes at a
uniform point of [-B, B]^n with probability at most d/(2B+1) per trial), and
replaces the heavy symbolic determinants with numeric determinants of the
evaluated matrices.

Exact mode proves ``detTcal_factor`` (det Tcal = c * det(T o p)) on small
matrices: projectability makes Tcal . [J_p^T | E_K] block-triangular, so
det Tcal * eps * det J_minor = sigma * det A * det(T o p)
(``genus_fields.det_factor_residuals``).  The entry checks the block
product, det J_minor != 0 (else the equation says nothing about det Tcal)
and det A = sigma * eps * c * det J_minor; the ring has no zero divisors, so
the identity follows.

Entries run serially on the calling thread, in ``suite_entries`` order,
with one shared ``SuiteContext`` per genus; the report is ordered by entry
id.  The work is pure-Python arithmetic that holds the interpreter lock, so
threads cannot speed it up.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import reference
from .classical import compare_tables
from .derivation import (
    BracketRelation,
    Derivation,
    ladder_complete,
    verify_pushforward,
)
from .exactpoly import (
    Poly,
    PolyMatrix,
    det_minor_expansion,
    divexact,
    sylvester_matrix,
)
from .genus_fields import (
    _ladder_steps,
    build_even_by_ladder,
    build_Tcal,
    catalog,
    det_factor_residuals,
    euler_relations,
    field_names,
    parse_coeff,
    pullback_T,
    solve_genus2_normalization,
    table_relations,
)
from .lambda_space import (
    M_PAIRS,
    CurveModel,
    all_L,
    build_f,
    build_T,
    discriminant_R,
    m_relation_rows,
)
from .param_map import (
    generate_relations,
    jacobi_map,
    verify_relations_vanish,
    w_name,
    x_name,
)
from .report import ReportEntry, VerificationReport

_RESIDUAL_CAP = 1500


@dataclass
class PitConfig:
    """Randomized-testing parameters.

    ``coordinate_bound`` must be at least twice the maximal total degree of
    any checked identity, keeping the per-trial miss probability of a false
    pass below 1/2 (then amplified by sample_count repetitions).
    """

    sample_count: int = 3
    coordinate_bound: int = 211
    seed: int = 0

    def validate_for(self, max_degree: int):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.coordinate_bound < 2 * max_degree:
            raise ValueError(
                f"coordinate_bound {self.coordinate_bound} below twice the "
                f"maximal identity degree {max_degree}"
            )


def max_identity_degree(genus: int) -> int:
    """Total degree of the largest identity: the 3g x 3g action determinant.

    Its weight is the sum of all field weights and coordinate weights, and
    the least coordinate weight is 2.
    """
    field_w = sum(range(0, 4 * genus - 1, 2)) + sum(range(1, 2 * genus, 2))
    coord_w = sum(i + j for j in range(1, 2 * genus, 2) for i in (1, 2, 3))
    return (field_w + coord_w) // 2


def _entry_rng(seed: int, entry_id: str) -> random.Random:
    """RNG stream keyed by entry id, so an entry's pit result does not depend
    on which genera are selected or which entries ran before it."""
    digest = hashlib.sha256(f"{seed}:{entry_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _truncate(text: str) -> str:
    if len(text) > _RESIDUAL_CAP:
        return text[:_RESIDUAL_CAP] + " ... (truncated)"
    return text


def _poly_witness(label: str, p: Poly) -> str:
    return _truncate(f"{label}: {p.to_text()}")


def _sample_point(ring, rng: random.Random, bound: int) -> dict:
    return {v.name: rng.randint(-bound, bound) for v in ring.vars}


# -- numeric linear algebra for pit mode ---------------------------------------


def fraction_det(rows) -> Fraction:
    """Exact determinant of a numeric matrix by Gaussian elimination."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if mat[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            det = -det
        det *= mat[k][k]
        inv = 1 / mat[k][k]
        for r in range(k + 1, n):
            if mat[r][k] != 0:
                f = mat[r][k] * inv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[k])]
    return det


def fraction_adjugate(rows) -> list[list[Fraction]]:
    """Adjugate of a numeric matrix via cofactor determinants."""
    n = len(rows)
    adj = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * fraction_det(minor)
    return adj


def eval_matrix(m: PolyMatrix, point: dict):
    return [[p.evaluate(point) for p in row] for row in m.rows]


# -- suite context --------------------------------------------------------------


class SuiteContext:
    """Shared lazily-built objects for one genus, each built on first use."""

    def __init__(self, genus: int):
        self.genus = genus
        self._memo = {}

    def _get(self, key, builder):
        if key not in self._memo:
            self._memo[key] = builder()
        return self._memo[key]

    @property
    def model(self) -> CurveModel:
        return self._get("model", lambda: CurveModel(self.genus))

    @property
    def R(self) -> Poly:
        return self._get("R", lambda: discriminant_R(self.model))

    @property
    def T(self) -> PolyMatrix:
        return self._get("T", lambda: build_T(self.model))

    @property
    def detT(self) -> Poly:
        return self._get("detT", lambda: det_minor_expansion(self.T))

    @property
    def lam_fields(self):
        return self._get("lam_fields", lambda: all_L(self.model))

    @property
    def rels(self):
        return self._get("rels", lambda: generate_relations(self.genus))

    @property
    def jm(self):
        return self._get("jm", lambda: jacobi_map(self.genus))

    @property
    def cat(self):
        return self._get("cat", lambda: catalog(self.genus, params="symbolic"))

    @property
    def cat_zero(self):
        return self._get("cat_zero", lambda: catalog(self.genus, params="zero"))

    @property
    def Tcal(self) -> PolyMatrix:
        return self._get("Tcal", lambda: build_Tcal(self.cat_zero))

    @property
    def Tp(self) -> PolyMatrix:
        return self._get("Tp", lambda: pullback_T(self.cat_zero))

    @property
    def sylvester(self) -> PolyMatrix:
        def build():
            f = build_f(self.model)
            return sylvester_matrix(f, f.partial("X"), "X")

        return self._get("sylvester", build)

    @property
    def table_rels(self) -> dict:
        return self._get(
            "table_rels",
            lambda: {r.label: r for r in table_relations(self.cat)},
        )


# -- check helpers ---------------------------------------------------------------


def _zero_polys(polys, mode, pit: PitConfig, rng, labels=None):
    """Common zero-test: exact structural equality or pointwise evaluation."""
    polys = list(polys)
    labels = labels or [f"#{i}" for i in range(len(polys))]
    if mode == "exact":
        for label, p in zip(labels, polys):
            if not p.is_zero():
                return False, _poly_witness(label, p)
        return True, None
    for _ in range(pit.sample_count):
        for label, p in zip(labels, polys):
            if p.is_zero():
                continue
            point = _sample_point(p.ring, rng, pit.coordinate_bound)
            val = p.evaluate(point)
            if val != 0:
                return False, _truncate(f"{label} at {point} -> {val}")
    return True, None


def _zero_derivation(d: Derivation, mode, pit, rng, label="residual"):
    labels = [f"{label}.{v}" for v in sorted(d.action)]
    polys = [d.action[v] for v in sorted(d.action)]
    return _zero_polys(polys, mode, pit, rng, labels)


def _relation_check(rel: BracketRelation, mode, pit, rng):
    return _zero_derivation(rel.residual(), mode, pit, rng, label=rel.label)


# -- entry construction -----------------------------------------------------------

# An entry is (id, anchor, fn(ctx, mode, pit, rng) -> (ok, residual|None)).


def _params_entries(g: int):
    entries = []

    def curve_poly(ctx, mode, pit, rng):
        f = build_f(ctx.model)
        cx = f.coeffs_in("X")
        deg = max(cx)
        problems = []
        if deg != 2 * g + 1:
            problems.append(f"degree {deg}")
        if cx[deg] != ctx.model.fring.one:
            problems.append("not monic")
        if 2 * g in cx:
            problems.append("has X^(2g) term")
        if not f.is_homogeneous_of(4 * g + 2):
            problems.append("not homogeneous")
        return not problems, ", ".join(problems) or None

    entries.append(
        (f"g{g}.params.curve_poly", "curve polynomial shape", curve_poly)
    )

    def r_weight(ctx, mode, pit, rng):
        w = reference.r_weight(g)
        ok = ctx.R.is_homogeneous_of(w) and not ctx.R.is_zero()
        return ok, None if ok else f"weight_check -> {ctx.R.weight_check()}"

    entries.append(
        (
            f"g{g}.params.R_weight",
            f"discriminant resultant homogeneous of weight {reference.r_weight(g)}",
            r_weight,
        )
    )

    if g == 1:

        def r_value(ctx, mode, pit, rng):
            expected = ctx.model.ring.parse("4*l4^3 + 27*l6^2")
            return _zero_polys([ctx.R - expected], mode, pit, rng, ["R - expected"])

        entries.append(
            (f"g{g}.params.R_value", "R = 4 l4^3 + 27 l6^2", r_value)
        )

    def t_symmetric(ctx, mode, pit, rng):
        ok = ctx.T.is_symmetric()
        return ok, None if ok else "T is not symmetric"

    entries.append((f"g{g}.params.T_symmetric", "T matrix symmetry", t_symmetric))

    def t_weights(ctx, mode, pit, rng):
        for k in range(1, 2 * g + 1):
            for m in range(1, 2 * g + 1):
                if not ctx.T.entry(k - 1, m - 1).is_homogeneous_of(2 * k + 2 * m):
                    return False, f"entry ({k},{m}) weight"
        return True, None

    entries.append(
        (f"g{g}.params.T_weights", "T entries homogeneous of weight 2k+2m", t_weights)
    )

    def t_display(ctx, mode, pit, rng):
        grid = reference.T_MATRIX[g]
        diffs = []
        for i, row in enumerate(grid):
            for j, text in enumerate(row):
                d = ctx.T.entry(i, j) - ctx.model.ring.parse(text)
                if not d.is_zero():
                    diffs.append(f"({i + 1},{j + 1})")
        return not diffs, (", ".join(diffs) or None)

    entries.append(
        (f"g{g}.params.T_display", "T matches its displayed form", t_display)
    )

    def euler_eigen(ctx, mode, pit, rng):
        L0 = ctx.lam_fields[0]
        polys = []
        labels = []
        for s in ctx.model.indices:
            lam = ctx.model.lam(s)
            polys.append(L0.apply(lam) - s * lam)
            labels.append(f"L0(l{s})")
        return _zero_polys(polys, mode, pit, rng, labels)

    entries.append(
        (f"g{g}.params.euler_eigen", "L0 multiplies l_s by s", euler_eigen)
    )

    def euler_brackets(ctx, mode, pit, rng):
        for k, L in ctx.lam_fields.items():
            res = ctx.lam_fields[0].bracket(L) - L.scale(k)
            ok, witness = _zero_derivation(res, mode, pit, rng, f"[L0,L{k}]")
            if not ok:
                return ok, witness
        return True, None

    entries.append(
        (f"g{g}.params.euler_brackets", "[L0, Lk] = k Lk on parameter space",
         euler_brackets)
    )

    def cross_actions(ctx, mode, pit, rng):
        # L_{2k}(l_{2s+4}) = L_{2s}(l_{2k+4}), equivalent to T symmetry;
        # check both independently.
        fields = ctx.lam_fields
        polys, labels = [], []
        for a in fields:
            for b in fields:
                sa, sb = a + 4, b + 4
                if sa in ctx.model.indices and sb in ctx.model.indices:
                    polys.append(
                        fields[a].apply(ctx.model.lam(sb))
                        - fields[b].apply(ctx.model.lam(sa))
                    )
                    labels.append(f"L{a}(l{sb}) - L{b}(l{sa})")
        ok, witness = _zero_polys(polys, mode, pit, rng, labels)
        if ok != ctx.T.is_symmetric():
            return False, "cross-action check disagrees with T symmetry"
        return ok, witness

    entries.append(
        (f"g{g}.params.cross_actions",
         "pairwise field actions commute across indices", cross_actions)
    )

    def dett_eq_cr(ctx, mode, pit, rng):
        c = reference.DETT_R_CONSTANT[g]
        if mode == "exact":
            return _zero_polys(
                [ctx.detT - ctx.R * c], "exact", pit, rng, ["detT - c*R"]
            )
        for _ in range(pit.sample_count):
            point = _sample_point(ctx.model.ring, rng, pit.coordinate_bound)
            point["X"] = 0  # unused column variable of the Sylvester ring
            dt = fraction_det(eval_matrix(ctx.T, point))
            rv = fraction_det(eval_matrix(ctx.sylvester, point))
            if dt != c * rv:
                return False, _truncate(f"detT={dt}, c*R={c * rv} at {point}")
        return True, None

    entries.append(
        (f"g{g}.params.detT_eq_cR",
         f"det T = ({reference.DETT_R_CONSTANT[g]}) * R", dett_eq_cr)
    )

    def tangency(ctx, mode, pit, rng):
        mults = [ctx.model.ring.parse(t) for t in reference.TANGENCY_MULTIPLIERS[g]]
        fields = [ctx.lam_fields[k] for k in sorted(ctx.lam_fields)]
        if mode == "exact":
            for L, m in zip(fields, mults):
                got = divexact(L.apply(ctx.detT), ctx.detT)
                if got != m:
                    return False, _truncate(
                        f"{L.name}: multiplier {got.to_text()} != {m.to_text()}"
                    )
            return True, None
        for _ in range(pit.sample_count):
            point = _sample_point(ctx.model.ring, rng, pit.coordinate_bound)
            tnum = eval_matrix(ctx.T, point)
            adj = fraction_adjugate(tnum)
            dt = fraction_det(tnum)
            for L, m in zip(fields, mults):
                lt = eval_matrix(ctx.T.map(L.apply), point)
                # Jacobi's formula: L(det T) = tr(adj(T) . L(T))
                ldet = sum(
                    adj[i][j] * lt[j][i] for i in range(len(adj)) for j in range(len(adj))
                )
                if ldet != m.evaluate(point) * dt:
                    return False, _truncate(f"{L.name} tangency fails at {point}")
        return True, None

    entries.append(
        (f"g{g}.params.tangency",
         "fields rescale det T by the stated multipliers", tangency)
    )

    if g == 3:
        for i, j in M_PAIRS:
            def m_row(ctx, mode, pit, rng, i=i, j=j):
                rows = m_relation_rows(ctx.model, ctx.lam_fields)
                rel = next(
                    r for r in rows if r.label == f"[L{i},L{j}]"
                )
                return _relation_check(rel, mode, pit, rng)

            entries.append(
                (f"g{g}.params.structure.L{i}_L{j}",
                 f"[L{i},L{j}] expands in the structure matrix", m_row)
            )
    return entries


def _map_entries(g: int):
    entries = []

    def relation_count(ctx, mode, pit, rng):
        n = len(ctx.rels)
        want = g * (g + 3) // 2
        return n == want, None if n == want else f"{n} != {want}"

    entries.append(
        (f"g{g}.map.relation_count", "relation count g(g+3)/2", relation_count)
    )

    def relations_homogeneous(ctx, mode, pit, rng):
        bad = [r.label for r in ctx.rels.relations if r.poly.weight_check() is None]
        return not bad, ", ".join(bad) or None

    entries.append(
        (f"g{g}.map.relations_homogeneous", "every relation homogeneous",
         relations_homogeneous)
    )

    def components_match(ctx, mode, pit, rng):
        ring = ctx.jm.ring
        polys, labels = [], []
        for s, text in reference.MAP[g].items():
            polys.append(ctx.jm.lambda_exprs[int(s[1:])] - ring.parse(text))
            labels.append(s)
        for kl, text in reference.W_EXPRS.get(g, {}).items():
            polys.append(ctx.jm.w_exprs[kl] - ring.parse(text))
            labels.append(w_name(g, *kl))
        return _zero_polys(polys, mode, pit, rng, labels)

    entries.append(
        (f"g{g}.map.components_match",
         "eliminated expressions equal their displayed forms", components_match)
    )

    def components_homogeneous(ctx, mode, pit, rng):
        bad = []
        for s, p in ctx.jm.lambda_exprs.items():
            if not p.is_homogeneous_of(s):
                bad.append(f"l{s}")
        for (k, l), p in ctx.jm.w_exprs.items():
            if not p.is_homogeneous_of(k + l):
                bad.append(w_name(g, k, l))
        return not bad, ", ".join(bad) or None

    entries.append(
        (f"g{g}.map.components_homogeneous",
         "map components homogeneous of their weights", components_homogeneous)
    )

    def relations_vanish(ctx, mode, pit, rng):
        if mode == "exact":
            bad = verify_relations_vanish(ctx.rels, ctx.jm)
            if bad:
                label, p = sorted(bad.items())[0]
                return False, _poly_witness(label, p)
            return True, None
        # evaluate each relation at the image of a random x-point
        ring = ctx.jm.ring
        for _ in range(pit.sample_count):
            point = _sample_point(ring, rng, pit.coordinate_bound)
            values = dict(point)
            for s, p in ctx.jm.lambda_exprs.items():
                values[f"l{s}"] = p.evaluate(point)
            for kl, p in ctx.jm.w_exprs.items():
                values[w_name(g, *kl)] = p.evaluate(point)
            for rel in ctx.rels.relations:
                val = rel.poly.evaluate(values)
                if val != 0:
                    return False, _truncate(f"{rel.label} -> {val}")
        return True, None

    entries.append(
        (f"g{g}.map.relations_vanish",
         "all relations vanish after substitution", relations_vanish)
    )
    return entries


def _field_entries(g: int):
    entries = []

    def homogeneous(ctx, mode, pit, rng):
        bad = []
        for name, d in ctx.cat.fields.items():
            bad += [f"{name}({v})" for v in d.homogeneity_defects()]
        return not bad, ", ".join(bad) or None

    entries.append(
        (f"g{g}.fields.homogeneous", "fields homogeneous of their weights",
         homogeneous)
    )

    def euler_rows(ctx, mode, pit, rng):
        for rel in euler_relations(ctx.cat):
            ok, witness = _relation_check(rel, mode, pit, rng)
            if not ok:
                return ok, witness
        return True, None

    entries.append(
        (f"g{g}.fields.euler_rows", "[L0, Lk] = k Lk on generator space",
         euler_rows)
    )

    def displayed_actions(ctx, mode, pit, rng):
        # displayed grids describe the base fields: zero parameters for g=2
        cat = ctx.cat_zero if g == 2 else ctx.cat
        polys, labels = [], []
        for name, grid in reference.FIELD_ACTIONS[g].items():
            for v, text in grid.items():
                polys.append(cat.fields[name].on(v) - parse_coeff(cat, text))
                labels.append(f"{name}({v})")
        if g == 3:
            for name, grid in reference.EVEN_SEEDS_G3.items():
                for v, text in grid.items():
                    polys.append(cat.fields[name].on(v) - parse_coeff(cat, text))
                    labels.append(f"{name}({v})")
        return _zero_polys(polys, mode, pit, rng, labels)

    entries.append(
        (f"g{g}.fields.displayed_actions",
         "field actions match every displayed coefficient", displayed_actions)
    )

    def odd_ladder_agrees(ctx, mode, pit, rng):
        cat = ctx.cat
        zero_rhs = Derivation("zero", cat.ring, {})
        for s in range(3, 2 * g, 2):
            direct = cat.fields[f"L{s}"]
            seeds = {
                x_name(g, 1, j): direct.on(x_name(g, 1, j))
                for j in range(1, 2 * g, 2)
            }
            laddered = ladder_complete(
                f"L{s}", seeds, cat.fields["L1"], zero_rhs,
                _ladder_steps(g), weight=s,
            )
            if laddered != direct:
                return False, f"L{s} ladder disagrees with direct construction"
        return True, None

    entries.append(
        (f"g{g}.fields.odd_ladder_agrees",
         "odd fields: iterated construction equals ladder completion",
         odd_ladder_agrees)
    )

    if g in (1, 2):

        def even_ladder_agrees(ctx, mode, pit, rng):
            cat = ctx.cat_zero if g == 2 else ctx.cat
            for name in (["L2"] if g == 1 else ["L2", "L4", "L6"]):
                k = int(name[1:])
                direct = cat.fields[name]
                seeds = {
                    x_name(g, 1, j): direct.on(x_name(g, 1, j))
                    for j in range(1, 2 * g, 2)
                }
                laddered = build_even_by_ladder(cat, k, seeds)
                if laddered != direct:
                    return False, f"{name} ladder disagrees with explicit actions"
            return True, None

        entries.append(
            (f"g{g}.fields.even_ladder_agrees",
             "even fields: ladder completion matches explicit actions",
             even_ladder_agrees)
        )

    if g >= 2:

        def aux_match(ctx, mode, pit, rng):
            cat = ctx.cat
            polys, labels = [], []
            for name, text in reference.AUX[g].items():
                polys.append(cat.aux[name] - parse_coeff(cat, text))
                labels.append(name)
            return _zero_polys(polys, mode, pit, rng, labels)

        entries.append(
            (f"g{g}.fields.aux_match",
             "auxiliary polynomials equal their displayed forms", aux_match)
        )

    for name in field_names(g):

        def projectable(ctx, mode, pit, rng, name=name):
            cat = ctx.cat
            k = int(name[1:])
            down = None if k % 2 else ctx.lam_fields[k]
            if mode == "exact":
                ok, failures = verify_pushforward(cat.fields[name], cat.pmap, down)
                if ok:
                    return True, None
                v, p = sorted(failures.items())[0]
                return False, _poly_witness(f"{name} on {v}", p)
            polys, labels = [], []
            for vname, comp in cat.pmap.components.items():
                lhs = cat.fields[name].apply(comp)
                rhs = (
                    cat.pmap.pullback(down.on(vname)) if down is not None
                    else cat.ring.zero
                )
                polys.append(lhs - rhs)
                labels.append(f"{name} on {vname}")
            return _zero_polys(polys, "pit", pit, rng, labels)

        entries.append(
            (f"g{g}.fields.projectability.{name}",
             f"{name} projects onto its parameter-space counterpart",
             projectable)
        )

    def pushforward_hom(ctx, mode, pit, rng):
        cat = ctx.cat
        names = cat.names
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                na, nb = names[a], names[b]
                ka, kb = int(na[1:]), int(nb[1:])
                up = cat.fields[na].bracket(cat.fields[nb])
                down = (
                    ctx.lam_fields[ka].bracket(ctx.lam_fields[kb])
                    if ka % 2 == 0 and kb % 2 == 0
                    else None
                )
                ok, failures = verify_pushforward(up, cat.pmap, down)
                if not ok:
                    v, p = sorted(failures.items())[0]
                    return False, _poly_witness(f"[{na},{nb}] on {v}", p)
        return True, None

    entries.append(
        (f"g{g}.fields.pushforward_homomorphism",
         "bracket commutes with the pushforward", pushforward_hom)
    )

    for left, right, _ in reference.BRACKET_TABLE[g]:

        def table_row(ctx, mode, pit, rng, left=left, right=right):
            rel = ctx.table_rels[f"[{left},{right}]"]
            return _relation_check(rel, mode, pit, rng)

        entries.append(
            (f"g{g}.fields.table.{left}_{right}",
             f"[{left},{right}] matches its displayed expansion", table_row)
        )

    def dettcal_factor(ctx, mode, pit, rng):
        c = reference.DET_TCAL_FACTOR[g]
        if mode == "exact":
            residuals, minor = det_factor_residuals(ctx.cat_zero, ctx.Tcal, ctx.Tp, c)
            if minor.is_zero():
                return False, "det J_minor = 0: the block product proves nothing"
            return _zero_polys(
                residuals.values(), "exact", pit, rng, list(residuals)
            )
        for _ in range(pit.sample_count):
            point = _sample_point(ctx.cat_zero.ring, rng, pit.coordinate_bound)
            lhs = fraction_det(eval_matrix(ctx.Tcal, point))
            lam_point = ctx.cat_zero.pmap.evaluate(point)
            rhs = c * fraction_det(eval_matrix(ctx.T, lam_point))
            if lhs != rhs:
                return False, _truncate(f"{lhs} != {rhs} at {point}")
        return True, None

    entries.append(
        (f"g{g}.fields.detTcal_factor",
         f"det of the action matrix = {reference.DET_TCAL_FACTOR[g]} * det T o p",
         dettcal_factor)
    )

    if g == 2:

        def normalization(ctx, mode, pit, rng):
            sol = solve_genus2_normalization(ctx.cat)
            nonzero = {k: str(v) for k, v in sol.items() if v != 0}
            return not nonzero, (str(nonzero) if nonzero else None)

        entries.append(
            (f"g{g}.fields.normalization",
             "triangular depth-1 normalization forces zero parameters",
             normalization)
        )

    def classical(ctx, mode, pit, rng):
        # classical tables describe the zero-parameter member of the family
        target = ctx.cat_zero if g == 2 else ctx.cat
        mism = compare_tables(target, reference.CLASSICAL_TABLE[g])
        if not mism:
            return True, None
        pair, diffs = sorted(mism.items())[0]
        fname, d = sorted(diffs.items())[0]
        text = d if isinstance(d, str) else d.to_text()
        return False, _truncate(f"[{pair[0]},{pair[1]}] on {fname}: {text}")

    entries.append(
        (f"g{g}.fields.classical_table",
         "classical-notation table translates onto the computed table",
         classical)
    )

    def jacobi(ctx, mode, pit, rng):
        cat = ctx.cat
        names = cat.names
        # inner brackets shared across the triple scan; only a < b is built,
        # since [C, A] = -[A, C] by the definition of the commutator
        pair = {
            (a, b): cat.fields[names[a]].bracket(cat.fields[names[b]])
            for a in range(len(names))
            for b in range(a + 1, len(names))
        }
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                for c in range(b + 1, len(names)):
                    A = cat.fields[names[a]]
                    B = cat.fields[names[b]]
                    C = cat.fields[names[c]]
                    res = (
                        A.bracket(pair[(b, c)])
                        - B.bracket(pair[(a, c)])
                        + C.bracket(pair[(a, b)])
                    )
                    ok, witness = _zero_derivation(
                        res, mode, pit, rng,
                        f"jacobi({names[a]},{names[b]},{names[c]})",
                    )
                    if not ok:
                        return ok, witness
        return True, None

    entries.append(
        (f"g{g}.fields.jacobi", "Jacobi identity over all field triples", jacobi)
    )
    return entries


def suite_entries(genus: int):
    """All report entries for one genus, in dependency order."""
    return _params_entries(genus) + _map_entries(genus) + _field_entries(genus)


def run_suite(
    genus, mode: str = "exact", pit: PitConfig | None = None
) -> VerificationReport:
    """Run the verification suite; failures become report entries, not raises."""
    if mode not in ("exact", "pit"):
        raise ValueError("mode must be 'exact' or 'pit'")
    genera = [1, 2, 3] if genus == "all" else [int(genus)]
    for g in genera:
        if g not in (1, 2, 3):
            raise ValueError("genus must be 1, 2, 3 or 'all'")
    pit = pit or PitConfig()
    if mode == "pit":
        pit.validate_for(max(max_identity_degree(g) for g in genera))
    report = VerificationReport(
        mode=mode, genus=genera, seed=pit.seed if mode == "pit" else None
    )
    for g in genera:
        ctx = SuiteContext(g)
        for entry_id, anchor, fn in suite_entries(g):
            rng = _entry_rng(pit.seed, entry_id)
            start = time.perf_counter()
            try:
                ok, residual = fn(ctx, mode, pit, rng)
            except Exception as exc:  # defect in construction: report, don't crash
                ok, residual = False, _truncate(f"exception: {exc!r}")
            elapsed = time.perf_counter() - start
            if not ok and not residual:
                residual = "failed without witness detail"
            report.add(
                ReportEntry(
                    id=entry_id,
                    anchor=anchor,
                    status="pass" if ok else "fail",
                    residual=residual if not ok else None,
                    wall_time=round(elapsed, 6),
                )
            )
    report.sort()
    return report
