"""Verification suites: every identity as a report entry, exact or randomized.

Each entry is a claim: a generator ``claim(ctx, mode, pit, rng, *key)`` of
``(label, residual)`` items.  A residual is a ``Poly`` that must be zero; a
``Derivation`` that must be zero on every variable (its components labelled
``label.v``, in sorted variable order); a number that must be 0; or a
problem string, which always fails.  One runner, ``_decide``, returns
``(ok, witness)`` with the witness of the first failing item.  A nonzero
``Poly`` fails in both modes: exact mode says ``label: poly``, and pit mode
evaluates it at ``sample_count`` random points of [-B, B]^n for the
witness ``label at {point} -> value``, falling back to ``label: poly`` when
it vanishes at every one.  A number fails as ``label -> value``, a problem
as ``label: problem``.  No claim expands det T, nor R beyond genus 1:
``R_weight`` reads the entry weights of the Bezout matrix B = [[A, b],
[b^T, n]] of f, f' (det B = +-R; Cox, Little & O'Shea, GTM 185) and det B
at one point, and exact ``detT_eq_cR`` checks n*T = -2*J*S*J, J the
reversal and S = n*A - b*b^T; Schur's formula (F. Zhang (ed.), *The Schur
Complement and Its Applications*, Springer 2005) gives det T = (-4)^g/n * R.
Pit mode, the one branch on the mode, samples det T and R: a nonzero identity
of degree d vanishes at a point with probability at most d/(2B+1)
(Schwartz-Zippel).  Tangency: as [L_k, L_i] = sum_m c_ki^m L_m (Buchstaber &
Leykin, Funct. Anal. Appl. 42, 2008), L_k(det T) = (div L_k + sum_i c_ki^i)
det T by Saito's identity (K. Saito, J. Fac. Sci. Univ. Tokyo 27, 1980).

Each genus has one shared ``SuiteContext``; ``run_suite`` decides every
entry on the calling thread, in ``suite_entries`` order, and orders the
report by entry id.  The structure functions c_ab^k of
[L_a, L_b] = sum_k c_ab^k L_k (Buchstaber & Leykin, Funct. Anal. Appl. 36,
2002) are decided once per space by ``genus_fields.structure``, from the
table and Euler rows (``ctx.structure``) and from the Euler rows and the
table's even part (``ctx.lam_structure``).  Every bracket entry reads
them, so a wrong displayed row fails only the entries that check it: its
``fields.table`` row and, for a pair of even fields, ``params.tangency``.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import NamedTuple

from . import reference
from .classical import compare_tables
from .derivation import Derivation, linear_sum, verify_pushforward
from .exactpoly import Poly, row_reduce
from .genus_fields import (
    build_by_ladder,
    build_Tcal,
    catalog,
    det_factor_residuals,
    euler_relations,
    field_names,
    parse_coeff,
    pullback_T,
    read_relations,
    seed_texts,
    solve_genus2_normalization,
    structure,
    table_relations,
    x1_coordinates,
)
from .lambda_space import (
    M_PAIRS,
    CurveModel,
    all_L,
    bezout_f,
    build_f,
    build_T,
    discriminant_R,
    m_relation_rows,
    schur_identity,
)
from .param_map import (
    generate_relations,
    verify_relations_vanish,
    w_name,
)
from .report import ReportEntry, VerificationReport

_RESIDUAL_CAP = 1500


class PitConfig(NamedTuple):
    """Randomized-testing parameters.

    Only det T = c * R, of degree d = ``max_identity_degree``, is sampled.
    ``coordinate_bound`` B >= 2d keeps a false pass's per-trial probability
    d/(2B+1) below 1/4 (then amplified by sample_count repetitions).
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
    """A bound on the total degree of det T - c * R, the one sampled
    identity: its weight is ``r_weight``, in parameters of weight at least 4."""
    return reference.r_weight(genus) // 4


def _entry_rng(seed: int, entry_id: str):
    """RNG stream keyed by entry id, so an entry's pit result does not depend
    on which genera are selected or which entries ran before it.  Only pit
    mode draws, so only pit mode imports ``hashlib`` and ``random``."""
    import hashlib
    import random

    digest = hashlib.sha256(f"{seed}:{entry_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _truncate(text: str) -> str:
    if len(text) > _RESIDUAL_CAP:
        return text[:_RESIDUAL_CAP] + " ... (truncated)"
    return text


def _points(ring, pit: PitConfig, rng):
    """``pit.sample_count`` random points of [-B, B]^n, B the coordinate bound."""
    bound = pit.coordinate_bound
    for _ in range(pit.sample_count):
        yield {v.name: rng.randint(-bound, bound) for v in ring.vars}


# -- numeric linear algebra for pit mode ---------------------------------------


def fraction_det(rows) -> Fraction:
    """Exact determinant of a square numeric matrix by ``row_reduce``."""
    return row_reduce(dict(enumerate(row)) for row in rows)[1]


# -- suite context --------------------------------------------------------------


class SuiteContext:
    """Shared lazily-built objects for one genus: ``ctx.key`` is
    ``_BUILDS[key](ctx)``, built on first use."""

    def __init__(self, genus: int):
        self.genus = genus
        self._memo = {}

    def _get(self, key, builder):
        if key not in self._memo:
            self._memo[key] = builder()
        return self._memo[key]

    def __getattr__(self, key):
        if key not in _BUILDS:
            raise AttributeError(key)
        return self._get(key, lambda: _BUILDS[key](self))


def _lam_structure(ctx):
    """``structure`` on parameter space: the Euler rows and the even-field
    part of every displayed row with a and b even, whose coefficients are
    written in l-symbols, read by ``read_relations``."""
    fields = {f"L{k}": L for k, L in ctx.lam_fields.items()}
    even = [(a, b, {f: text for f, text in coeffs.items() if f in fields})
            for a, b, coeffs in reference.BRACKET_TABLE[ctx.genus]
            if a in fields and b in fields]
    return structure(fields, euler_relations(fields) + read_relations(fields, even, {}))


_BUILDS = {
    "model": lambda ctx: CurveModel(ctx.genus),
    "R": lambda ctx: discriminant_R(ctx.model),
    "T": lambda ctx: build_T(ctx.model),
    "lam_fields": lambda ctx: all_L(ctx.T),
    "rels": lambda ctx: generate_relations(ctx.genus),
    "jm": lambda ctx: ctx.cat.jm,
    "cat": lambda ctx: catalog(ctx.genus, params="symbolic"),
    # the catalog the displayed tables describe: zero parameters for g = 2,
    # for g = 1 and 3 the same object as cat
    "cat_zero": lambda ctx: catalog(ctx.genus, params="zero"),
    "Tcal": lambda ctx: build_Tcal(ctx.cat_zero),
    "Tp": lambda ctx: pullback_T(ctx.cat_zero, ctx.T),
    "bezout": lambda ctx: bezout_f(ctx.model),
    "structure": lambda ctx: structure(
        ctx.cat.fields, table_relations(ctx.cat) + euler_relations(ctx.cat.fields)),
    "lam_structure": _lam_structure,
    "m_rels": lambda ctx: {
        r.label: r for r in m_relation_rows(ctx.model, ctx.lam_fields)
    },
}


# -- claims and their runner ---------------------------------------------------------

# The registration table, in run order: (id, genera, anchor, claim, members).
_CLAIMS = []


def _claim(entry_id, anchor, genera=(1, 2, 3), members=None):
    """Register the decorated claim as the next row of ``_CLAIMS``.  Each
    key of a family's ``members(g)`` is formatted into the id and anchor and
    passed to the claim after (ctx, mode, pit, rng)."""

    def register(claim):
        _CLAIMS.append((entry_id, genera, anchor, claim, members))
        return claim

    return register


def _decide(claim, key, ctx, mode, pit, rng):
    """The runner: (True, None) when every residual the claim yields
    vanishes, else (False, witness of the first that does not)."""
    for label, residual in claim(ctx, mode, pit, rng, *key):
        if isinstance(residual, Derivation):
            items = [(f"{label}.{v}", p) for v, p in sorted(residual.action.items())]
        else:
            items = [(label, residual)]
        for label, r in items:
            if isinstance(r, str):
                return False, _truncate(f"{label}: {r}")
            if not isinstance(r, Poly):
                if r != 0:
                    return False, _truncate(f"{label} -> {r}")
            elif not r.is_zero():
                if mode == "pit":
                    for point in _points(r.ring, pit, rng):
                        value = r.evaluate(point)
                        if value != 0:
                            return False, _truncate(f"{label} at {point} -> {value}")
                return False, _truncate(f"{label}: {r.to_text()}")
    return True, None


@_claim("params.curve_poly", "curve polynomial shape")
def _curve_poly(ctx, mode, pit, rng):
    g = ctx.genus
    f = build_f(ctx.model)
    cx = f.coeffs_in("X")
    deg = max(cx)
    if deg != 2 * g + 1:
        yield "f", f"degree {deg}"
    if cx[deg] != ctx.model.fring.one:
        yield "f", "not monic"
    if 2 * g in cx:
        yield "f", "has X^(2g) term"
    if not f.is_homogeneous_of(4 * g + 2):
        yield "f", "not homogeneous"


@_claim("params.R_weight", "discriminant resultant homogeneous of weight {r_weight}")
def _r_weight(ctx, mode, pit, rng):
    """R = +-det B, B = ``ctx.bezout``, unexpanded: entry (i, j), the x^i y^j
    coefficient of (f(x) f'(y) - f(y) f'(x))/(x - y) for x, y of weight 2, is
    homogeneous of weight u_i + u_j, u_i = 4g - 2i, so every term of det B
    has weight 2 * sum u, and det B != 0 at l = 1 shows that R != 0."""
    u = [4 * ctx.genus - 2 * i for i in range(ctx.bezout.nrows)]
    yield "2 * sum u - r_weight", 2 * sum(u) - reference.r_weight(ctx.genus)
    for i, row in enumerate(ctx.bezout.rows):
        for j, e in enumerate(row):
            if not e.is_homogeneous_of(u[i] + u[j]):
                yield f"B({i + 1},{j + 1})", f"not homogeneous of weight {u[i] + u[j]}"
    if not fraction_det(ctx.bezout.evaluate(dict.fromkeys(ctx.model.ring.names, 1))):
        yield "det B at l = 1", "0, so nothing shows R != 0"


@_claim("params.R_value", "R = 4 l4^3 + 27 l6^2", genera=(1,))
def _r_value(ctx, mode, pit, rng):
    yield "R - expected", ctx.R - ctx.model.ring.parse("4*l4^3 + 27*l6^2")


@_claim("params.T_symmetric", "T matrix symmetry")
def _t_symmetric(ctx, mode, pit, rng):
    if not ctx.T.is_symmetric():
        yield "T", "not symmetric"


@_claim("params.T_weights", "T entries homogeneous of weight 2k+2m")
def _t_weights(ctx, mode, pit, rng):
    for k in range(1, 2 * ctx.genus + 1):
        for m in range(1, 2 * ctx.genus + 1):
            if not ctx.T.entry(k - 1, m - 1).is_homogeneous_of(2 * k + 2 * m):
                yield f"T({k},{m})", f"not homogeneous of weight {2 * k + 2 * m}"


@_claim("params.T_display", "T matches its displayed form")
def _t_display(ctx, mode, pit, rng):
    for i, row in enumerate(reference.T_MATRIX[ctx.genus]):
        for j, text in enumerate(row):
            yield f"T({i + 1},{j + 1})", ctx.T.entry(i, j) - ctx.model.ring.parse(text)


@_claim("params.euler_eigen", "L0 multiplies l_s by s")
def _euler_eigen(ctx, mode, pit, rng):
    for s in ctx.model.indices:
        lam = ctx.model.lam(s)
        yield f"L0(l{s})", ctx.lam_fields[0].apply(lam) - s * lam


@_claim("params.euler_brackets", "[L0, Lk] = k Lk on parameter space")
def _euler_brackets(ctx, mode, pit, rng):
    residuals = ctx.lam_structure[0]
    for k in sorted(ctx.lam_fields)[1:]:
        yield f"[L0,L{k}]", residuals[f"[L0,L{k}]"]


@_claim("params.cross_actions", "pairwise field actions commute across indices")
def _cross_actions(ctx, mode, pit, rng):
    # L_{2k}(l_{2s+4}) = L_{2s}(l_{2k+4}), equivalent to T symmetry
    fields, lam = ctx.lam_fields, ctx.model.lam
    for a in fields:
        for b in fields:
            sa, sb = a + 4, b + 4
            if sa in ctx.model.indices and sb in ctx.model.indices:
                yield (f"L{a}(l{sb}) - L{b}(l{sa})",
                       fields[a].apply(lam(sb)) - fields[b].apply(lam(sa)))


@_claim("params.detT_eq_cR", "det T = ({dett_c}) * R")
def _dett_eq_cr(ctx, mode, pit, rng):
    """Exact: n*T = -2*J*S*J entry by entry (``schur_identity``), so
    det T = 4^g det S / n^(2g) = (-4)^g/n * R by Schur's formula
    det B0 = n^(1-2g) det S (Zhang, Springer 2005) and R = det B = (-1)^g
    det B0 (Cox, Little & O'Shea, GTM 185).  Pit: det T and det B sampled."""
    c = reference.DETT_R_CONSTANT[ctx.genus]
    if mode == "exact":
        residuals, derived = schur_identity(ctx.T, ctx.bezout)
        if derived is None:
            yield "Bezout corner", "not a nonzero constant"
            return
        yield from residuals.items()
        yield "detT - c*R", ctx.model.ring.const(c - derived)
        return
    for point in _points(ctx.model.ring, pit, rng):
        dt, rv = (fraction_det(m.evaluate(point)) for m in (ctx.T, ctx.bezout))
        yield f"detT - c*R at {point}", dt - c * rv


def _saito_multipliers(ctx) -> list[Poly]:
    """div L_k + sum_i c_ki^i, div L_k = sum_s d(L_k(l_s))/dl_s, for every
    field in weight order, c_ki^i read from ``ctx.lam_structure``."""
    ring, exp = ctx.model.ring, ctx.lam_structure[1]
    out = []
    for k, L in sorted(ctx.lam_fields.items()):
        div = sum((L.on(v).partial(v) for v in ring.names), ring.zero)
        out.append(sum((exp[f"L{k}", f"L{i}"].get(f"L{i}", ring.zero)
                        for i in ctx.lam_fields if i != k), div))
    return out


@_claim("params.tangency", "fields rescale det T by the stated multipliers")
def _tangency(ctx, mode, pit, rng):
    """Saito's identity: the displayed relations hold, and m_k is
    div L_k + tr c_k on the structure functions of ``ctx.lam_structure``.
    No determinant is built in either mode."""
    residuals, _, problem = ctx.lam_structure
    yield from residuals.items()
    if problem:
        yield problem
        return
    mults = reference.TANGENCY_MULTIPLIERS[ctx.genus]
    for k, derived, text in zip(sorted(ctx.lam_fields), _saito_multipliers(ctx), mults):
        yield f"div L{k} + tr c_{k} - m", derived - ctx.model.ring.parse(text)


@_claim("params.structure.{0}_{1}", "[{0},{1}] expands in the structure matrix",
        genera=(3,), members=lambda g: [(f"L{i}", f"L{j}") for i, j in M_PAIRS])
def _structure_row(ctx, mode, pit, rng, left, right):
    rel = ctx.m_rels[f"[{left},{right}]"]
    yield rel.label, rel.residual()


@_claim("map.relation_count", "relation count g(g+3)/2")
def _relation_count(ctx, mode, pit, rng):
    n, want = len(ctx.rels), ctx.genus * (ctx.genus + 3) // 2
    if n != want:
        yield "relations", f"{n} != {want}"


@_claim("map.relations_homogeneous", "every relation homogeneous")
def _relations_homogeneous(ctx, mode, pit, rng):
    for r in ctx.rels.relations:
        if r.poly.weight_check() is None:
            yield r.label, "not homogeneous"


@_claim("map.components_match", "eliminated expressions equal their displayed forms")
def _components_match(ctx, mode, pit, rng):
    g, ring = ctx.genus, ctx.jm.ring
    for s, text in reference.MAP[g].items():
        yield s, ctx.jm.lambda_exprs[int(s[1:])] - ring.parse(text)
    for kl, text in reference.W_EXPRS.get(g, {}).items():
        yield w_name(g, *kl), ctx.jm.w_exprs[kl] - ring.parse(text)


@_claim("map.components_homogeneous", "map components homogeneous of their weights")
def _components_homogeneous(ctx, mode, pit, rng):
    for s, p in ctx.jm.lambda_exprs.items():
        if not p.is_homogeneous_of(s):
            yield f"l{s}", f"not homogeneous of weight {s}"
    for (k, l), p in ctx.jm.w_exprs.items():
        if not p.is_homogeneous_of(k + l):
            yield w_name(ctx.genus, k, l), f"not homogeneous of weight {k + l}"


@_claim("map.relations_vanish", "all relations vanish after substitution")
def _relations_vanish(ctx, mode, pit, rng):
    yield from sorted(verify_relations_vanish(ctx.rels, ctx.jm).items())


@_claim("fields.homogeneous", "fields homogeneous of their weights")
def _homogeneous(ctx, mode, pit, rng):
    for name, d in ctx.cat.fields.items():
        for v in d.homogeneity_defects():
            yield f"{name}({v})", "not homogeneous"


@_claim("fields.euler_rows", "[L0, Lk] = k Lk on generator space")
def _euler_rows(ctx, mode, pit, rng):
    residuals = ctx.structure[0]
    for name in ctx.cat.names[1:]:
        yield f"[L0,{name}]", residuals[f"[L0,{name}]"]


@_claim("fields.displayed_actions", "field actions match every displayed coefficient")
def _displayed_actions(ctx, mode, pit, rng):
    """Every displayed action but the seeds, which the ladder takes as given
    and the ``fields.table`` rows [L1, Lk] decide."""
    cat, seeds = ctx.cat_zero, seed_texts(ctx.genus)
    for name, actions in reference.FIELD_ACTIONS[ctx.genus].items():
        for v, text in actions.items():
            if v not in seeds.get(name, {}):
                yield f"{name}({v})", cat.fields[name].on(v) - parse_coeff(cat, text)


@_claim("fields.odd_ladder_agrees",
        "odd fields: iterated construction equals ladder completion")
def _odd_ladder_agrees(ctx, mode, pit, rng):
    g, cat = ctx.genus, ctx.cat
    for s in range(3, 2 * g, 2):
        direct = cat.fields[f"L{s}"]
        seeds = {v: direct.on(v) for v in x1_coordinates(g)}
        if build_by_ladder(cat, s, seeds) != direct:
            yield f"L{s}", "ladder disagrees with direct construction"


@_claim("fields.even_ladder_agrees",
        "even fields: ladder completion matches explicit actions", genera=(1, 2))
def _even_ladder_agrees(ctx, mode, pit, rng):
    """Each zero-parameter even field, built from its seeds, against its
    whole displayed action grid: a variable the grid omits must map to 0."""
    cat = ctx.cat_zero
    for name in seed_texts(ctx.genus):
        grid = reference.FIELD_ACTIONS[ctx.genus][name]
        action = {v: parse_coeff(cat, text) for v, text in grid.items()}
        yield name, cat.fields[name] - Derivation(name, cat.ring, action)


@_claim("fields.aux_match", "auxiliary polynomials equal their displayed forms",
        genera=(2, 3))
def _aux_match(ctx, mode, pit, rng):
    """w6, w8, w10 from the elimination, then each defining field
    application of ``reference.AUX_DEFS``, against its displayed form."""
    cat, shown = ctx.cat, reference.AUX[ctx.genus]
    for name in ("w6", "w8", "w10"):
        if name in shown:
            yield name, cat.aux[name] - parse_coeff(cat, shown[name])
    for name, fname, arg in reference.AUX_DEFS[ctx.genus]:
        yield (f"{fname}({arg}) - {name}",
               cat.fields[fname].apply(parse_coeff(cat, arg)) - parse_coeff(cat, shown[name]))


@_claim("fields.projectability.{0}",
        "{0} projects onto its parameter-space counterpart",
        members=lambda g: [(name,) for name in field_names(g)])
def _projectable(ctx, mode, pit, rng, name):
    k = int(name[1:])
    down = None if k % 2 else ctx.lam_fields[k]
    for v, diff in verify_pushforward(ctx.cat.fields[name], ctx.cat.pmap, down)[1].items():
        yield f"{name} on {v}", diff


@_claim("fields.table.{0}_{1}", "[{0},{1}] matches its displayed expansion",
        members=lambda g: [r[:2] for r in reference.BRACKET_TABLE[g]])
def _table_row(ctx, mode, pit, rng, left, right):
    yield f"[{left},{right}]", ctx.structure[0][f"[{left},{right}]"]


@_claim("fields.pushforward_homomorphism", "bracket commutes with the pushforward")
def _pushforward_homomorphism(ctx, mode, pit, rng):
    """[La, Lb](p_j) = p*([La^l, Lb^l] l_j) on the c_ab^k of ``ctx.structure``
    and the c^l_ab^k of ``ctx.lam_structure``, c^l_ab = 0 when a or b is odd.
    As Lk(p_j) = p*(Lk^l l_j) for even k and 0 for odd k
    (``fields.projectability.*``), it reads sum_{k even} (c_ab^k -
    p*(c^l_ab^k)) p*(Lk^l l_j) = 0: it holds if c_ab^k = p*(c^l_ab^k) for
    every even k, and only if, as the p*(Lk^l l_j) are the rows of T o p
    and det(T o p) != 0."""
    if problem := ctx.structure[2] or ctx.lam_structure[2]:
        yield problem
        return
    cat, exp, lexp = ctx.cat, ctx.structure[1], ctx.lam_structure[1]
    for a, b in combinations(cat.names, 2):
        down = lexp.get((a, b), {})
        for k in (f"L{i}" for i in ctx.lam_fields):
            lhs = exp[a, b].get(k, cat.ring.zero)
            yield f"[{a},{b}] on {k}", lhs - cat.pmap.pullback(down[k]) if k in down else lhs


@_claim("fields.detTcal_factor", "det of the action matrix = {tcal_c} * det T o p")
def _dettcal_factor(ctx, mode, pit, rng):
    """Proves det Tcal = c * det(T o p) on small matrices
    (``genus_fields.det_factor_residuals``): the block product, det J_minor
    != 0 (else it says nothing about det Tcal) and det A = sigma * eps * c *
    det J_minor; the ring has no zero divisors, so the identity follows."""
    c = reference.DET_TCAL_FACTOR[ctx.genus]
    residuals, minor = det_factor_residuals(ctx.cat_zero, ctx.Tcal, ctx.Tp, c)
    if minor.is_zero():
        yield "det J_minor = 0", "the block product proves nothing"
    yield from residuals.items()


@_claim("fields.normalization",
        "triangular depth-1 normalization forces zero parameters", genera=(2,))
def _normalization(ctx, mode, pit, rng):
    solved = solve_genus2_normalization(ctx.cat)
    yield from [("normalization", solved)] if isinstance(solved, str) else solved.items()


@_claim("fields.classical_table",
        "classical-notation table translates onto the computed table")
def _classical_table(ctx, mode, pit, rng):
    _, exp, problem = ctx.structure
    if problem:
        yield problem
        return
    mism = compare_tables(ctx.cat_zero, reference.CLASSICAL_TABLE[ctx.genus], exp)
    for (left, right), diffs in sorted(mism.items()):
        for fname, d in sorted(diffs.items()):
            yield f"[{left},{right}] on {fname}", d.to_text()


def _structure_jacobi(cat, expansions):
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


@_claim("fields.jacobi", "Jacobi identity over all field triples")
def _jacobi(ctx, mode, pit, rng):
    _, exp, problem = ctx.structure
    if problem:
        yield problem
        return
    yield from _structure_jacobi(ctx.cat, exp)


def _registered(genus: int):
    """(id, anchor, claim, key) of every entry for one genus, in ``_CLAIMS``
    order."""
    constants = {
        "r_weight": reference.r_weight(genus),
        "dett_c": reference.DETT_R_CONSTANT[genus],
        "tcal_c": reference.DET_TCAL_FACTOR[genus],
    }
    for entry_id, genera, anchor, claim, members in _CLAIMS:
        if genus not in genera:
            continue
        for key in members(genus) if members else [()]:
            yield (f"g{genus}.{entry_id.format(*key)}",
                   anchor.format(*key, **constants), claim, key)


def suite_entries(genus: int):
    """All report entries for one genus, in dependency order: (id, anchor,
    fn), fn(ctx, mode, pit, rng) -> (ok, witness) running the entry's claim."""
    return [(entry_id, anchor, partial(_decide, claim, key))
            for entry_id, anchor, claim, key in _registered(genus)]


def _run_entry(ctx, entry_id, anchor, fn, mode, pit) -> ReportEntry:
    """Decide one entry; a claim that raises fails its entry."""
    rng = _entry_rng(pit.seed, entry_id) if mode == "pit" else None
    start = time.perf_counter()
    try:
        ok, residual = fn(ctx, mode, pit, rng)
    except Exception as exc:  # defect in construction: report, don't crash
        ok, residual = False, _truncate(f"exception: {exc!r}")
    return ReportEntry(
        id=entry_id, anchor=anchor, status="pass" if ok else "fail",
        residual=residual, wall_time=round(time.perf_counter() - start, 6),
    )


def run_suite(
    genus, mode: str = "exact", pit: PitConfig | None = None
) -> VerificationReport:
    """Run the verification suite; failures become report entries, not raises."""
    if mode not in ("exact", "pit"):
        raise ValueError("mode must be 'exact' or 'pit'")
    genera = [1, 2, 3] if genus == "all" else [int(genus)]
    if not set(genera) <= {1, 2, 3}:
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
            report.add(_run_entry(ctx, entry_id, anchor, fn, mode, pit))
    report.sort()
    return report
