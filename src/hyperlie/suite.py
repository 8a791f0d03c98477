"""Verification suites: every identity as a report entry, exact or randomized.

Each entry is a claim: a generator ``claim(ctx, mode, pit, rng, *key)`` of
``(label, residual)`` items.  A residual is a ``Poly`` that must be zero; a
``Derivation`` that must be zero on every variable (its components labelled
``label.v``, in sorted variable order); a number that must be 0; or a
problem string, which always fails.  One runner, ``_decide``, returns
``(ok, witness)`` with the witness of the first failing item.  Exact mode
tests a ``Poly`` for structural zero (``label: poly``).  Pit mode evaluates
a nonzero ``Poly`` at ``sample_count`` random points of [-B, B]^n
(``label at {point} -> value``); by Schwartz-Zippel it vanishes at one with
probability at most d/(2B+1), d its total degree.  A number fails as
``label -> value``, a problem as ``label: problem``.  Four claims branch on
the mode, as their pit forms evaluate matrices numerically and expand
nothing: ``detT_eq_cR``, ``tangency``, ``relations_vanish``,
``detTcal_factor``.

Each genus has one shared ``SuiteContext``.  The entries of claims
registered with ``apart`` builds (only ``fields.jacobi``, about half of the
arithmetic) run in one forked child, while the calling process runs every
other entry on its calling thread, in ``suite_entries`` order (``_beside``).
The report is ordered by entry id.  The work is pure-Python arithmetic that
holds the interpreter lock, so threads cannot share it out; a second
process can.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import NamedTuple

from . import reference
from .classical import compare_tables
from .derivation import (
    BracketRelation, Derivation, bracket_sum, ladder_complete, verify_pushforward,
)
from .exactpoly import Poly, det_minor_expansion
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
    bezout_f,
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


class PitConfig(NamedTuple):
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


_BUILDS = {
    "model": lambda ctx: CurveModel(ctx.genus),
    "R": lambda ctx: discriminant_R(ctx.model),
    "T": lambda ctx: build_T(ctx.model),
    "detT": lambda ctx: det_minor_expansion(ctx.T),
    "lam_fields": lambda ctx: all_L(ctx.model),
    "rels": lambda ctx: generate_relations(ctx.genus),
    "jm": lambda ctx: jacobi_map(ctx.genus),
    "cat": lambda ctx: catalog(ctx.genus, params="symbolic"),
    "cat_zero": lambda ctx: catalog(ctx.genus, params="zero"),
    "Tcal": lambda ctx: build_Tcal(ctx.cat_zero),
    "Tp": lambda ctx: pullback_T(ctx.cat_zero),
    "bezout": lambda ctx: bezout_f(ctx.model),
    # the catalog the displayed tables describe: zero parameters for g = 2
    "base": lambda ctx: ctx.cat_zero if ctx.genus == 2 else ctx.cat,
    # every field-pair bracket [La, Lb], a before b in the catalog order
    "pairs": lambda ctx: {
        (a, b): ctx.cat.fields[a].bracket(ctx.cat.fields[b])
        for a, b in combinations(ctx.cat.names, 2)
    },
    "table_rels": lambda ctx: {r.label: r for r in table_relations(ctx.cat)},
    "m_rels": lambda ctx: {
        r.label: r for r in m_relation_rows(ctx.model, ctx.lam_fields)
    },
}


# -- claims and their runner ---------------------------------------------------------

# The registration table, in run order:
# (id, genera, anchor, claim, members, apart).
_CLAIMS = []


def _claim(entry_id, anchor, genera=(1, 2, 3), members=None, apart=()):
    """Register the decorated claim as the next row of ``_CLAIMS``.  Each
    key of a family's ``members(g)`` is formatted into the id and anchor and
    passed to the claim after (ctx, mode, pit, rng).  A nonempty ``apart``
    names the ``SuiteContext`` builds the claim reads: ``run_suite`` makes
    them, then runs the claim's entries in the forked child."""

    def register(claim):
        _CLAIMS.append((entry_id, genera, anchor, claim, members, apart))
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
            elif r.is_zero():
                continue
            elif mode == "exact":
                return False, _truncate(f"{label}: {r.to_text()}")
            else:
                for point in _points(r.ring, pit, rng):
                    value = r.evaluate(point)
                    if value != 0:
                        return False, _truncate(f"{label} at {point} -> {value}")
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
    if not ctx.R.is_homogeneous_of(reference.r_weight(ctx.genus)) or ctx.R.is_zero():
        yield "R", f"weight_check -> {ctx.R.weight_check()}"


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
    for k, L in ctx.lam_fields.items():
        yield f"[L0,L{k}]", BracketRelation(ctx.lam_fields[0], L, [(k, L)]).residual()


@_claim("params.cross_actions", "pairwise field actions commute across indices")
def _cross_actions(ctx, mode, pit, rng):
    # L_{2k}(l_{2s+4}) = L_{2s}(l_{2k+4}), equivalent to T symmetry;
    # check both independently.
    fields, lam = ctx.lam_fields, ctx.model.lam
    for a in fields:
        for b in fields:
            sa, sb = a + 4, b + 4
            if sa in ctx.model.indices and sb in ctx.model.indices:
                yield (f"L{a}(l{sb}) - L{b}(l{sa})",
                       fields[a].apply(lam(sb)) - fields[b].apply(lam(sa)))
    if not ctx.T.is_symmetric():
        yield "T", "not symmetric"


@_claim("params.detT_eq_cR", "det T = ({dett_c}) * R")
def _dett_eq_cr(ctx, mode, pit, rng):
    c = reference.DETT_R_CONSTANT[ctx.genus]
    if mode == "exact":
        yield "detT - c*R", ctx.detT - ctx.R * c
        return
    for point in _points(ctx.model.ring, pit, rng):
        dt = fraction_det(ctx.T.evaluate(point))
        rv = fraction_det(ctx.bezout.evaluate(point))
        yield f"detT - c*R at {point}", dt - c * rv


@_claim("params.tangency", "fields rescale det T by the stated multipliers")
def _tangency(ctx, mode, pit, rng):
    mults = [ctx.model.ring.parse(t) for t in reference.TANGENCY_MULTIPLIERS[ctx.genus]]
    fields = [ctx.lam_fields[k] for k in sorted(ctx.lam_fields)]
    if mode == "exact":
        for L, m in zip(fields, mults):
            yield f"{L.name}(det T) - m*det T", L.apply(ctx.detT) - m * ctx.detT
        return
    for point in _points(ctx.model.ring, pit, rng):
        tnum = ctx.T.evaluate(point)
        dt = fraction_det(tnum)
        for L, m in zip(fields, mults):
            lt = ctx.T.map(L.apply).evaluate(point)
            # L(det T) = sum over rows i of det T with row i replaced by L(row i)
            ldet = sum(
                fraction_det(tnum[:i] + [row] + tnum[i + 1:])
                for i, row in enumerate(lt)
            )
            yield f"{L.name} tangency at {point}", ldet - m.evaluate(point) * dt


@_claim("params.structure.{1}_{2}", "[{1},{2}] expands in the structure matrix",
        genera=(3,),
        members=lambda g: [("m_rels", f"L{i}", f"L{j}") for i, j in M_PAIRS])
def _relation(ctx, mode, pit, rng, memo, left, right):
    rel = getattr(ctx, memo)[f"[{left},{right}]"]
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
    if mode == "exact":
        yield from sorted(verify_relations_vanish(ctx.rels, ctx.jm).items())
        return
    # evaluate each relation at the image of a random x-point
    for point in _points(ctx.jm.ring, pit, rng):
        values = dict(point)
        for s, p in ctx.jm.lambda_exprs.items():
            values[f"l{s}"] = p.evaluate(point)
        for kl, p in ctx.jm.w_exprs.items():
            values[w_name(ctx.genus, *kl)] = p.evaluate(point)
        for rel in ctx.rels.relations:
            yield f"{rel.label} at {point}", rel.poly.evaluate(values)


def _x1_seeds(g, field):
    return {x_name(g, 1, j): field.on(x_name(g, 1, j)) for j in range(1, 2 * g, 2)}


@_claim("fields.homogeneous", "fields homogeneous of their weights")
def _homogeneous(ctx, mode, pit, rng):
    for name, d in ctx.cat.fields.items():
        for v in d.homogeneity_defects():
            yield f"{name}({v})", "not homogeneous"


@_claim("fields.euler_rows", "[L0, Lk] = k Lk on generator space")
def _euler_rows(ctx, mode, pit, rng):
    for rel in euler_relations(ctx.cat):
        yield rel.label, rel.residual()


@_claim("fields.displayed_actions", "field actions match every displayed coefficient")
def _displayed_actions(ctx, mode, pit, rng):
    cat, g = ctx.base, ctx.genus
    grids = [reference.FIELD_ACTIONS[g]] + ([reference.EVEN_SEEDS_G3] if g == 3 else [])
    for grid in grids:
        for name, actions in grid.items():
            for v, text in actions.items():
                yield f"{name}({v})", cat.fields[name].on(v) - parse_coeff(cat, text)


@_claim("fields.odd_ladder_agrees",
        "odd fields: iterated construction equals ladder completion")
def _odd_ladder_agrees(ctx, mode, pit, rng):
    g, cat = ctx.genus, ctx.cat
    zero_rhs = Derivation("zero", cat.ring, {})
    for s in range(3, 2 * g, 2):
        direct = cat.fields[f"L{s}"]
        laddered = ladder_complete(
            f"L{s}", _x1_seeds(g, direct), cat.fields["L1"], zero_rhs,
            _ladder_steps(g), weight=s,
        )
        if laddered != direct:
            yield f"L{s}", "ladder disagrees with direct construction"


@_claim("fields.even_ladder_agrees",
        "even fields: ladder completion matches explicit actions", genera=(1, 2))
def _even_ladder_agrees(ctx, mode, pit, rng):
    cat = ctx.base
    for name in (["L2"] if ctx.genus == 1 else ["L2", "L4", "L6"]):
        direct = cat.fields[name]
        seeds = _x1_seeds(ctx.genus, direct)
        laddered = build_even_by_ladder(cat, int(name[1:]), seeds)
        if laddered != direct:
            yield name, "ladder disagrees with explicit actions"


@_claim("fields.aux_match", "auxiliary polynomials equal their displayed forms",
        genera=(2, 3))
def _aux_match(ctx, mode, pit, rng):
    for name, text in reference.AUX[ctx.genus].items():
        yield name, ctx.cat.aux[name] - parse_coeff(ctx.cat, text)


def _pushforward(label, up, pmap, down):
    for v, diff in verify_pushforward(up, pmap, down)[1].items():
        yield f"{label} on {v}", diff


@_claim("fields.projectability.{0}",
        "{0} projects onto its parameter-space counterpart",
        members=lambda g: [(name,) for name in field_names(g)])
def _projectable(ctx, mode, pit, rng, name):
    k = int(name[1:])
    down = None if k % 2 else ctx.lam_fields[k]
    yield from _pushforward(name, ctx.cat.fields[name], ctx.cat.pmap, down)


@_claim("fields.pushforward_homomorphism", "bracket commutes with the pushforward")
def _pushforward_homomorphism(ctx, mode, pit, rng):
    cat = ctx.cat
    for na, nb in combinations(cat.names, 2):
        ka, kb = int(na[1:]), int(nb[1:])
        up = ctx.pairs[na, nb]
        even = ka % 2 == 0 and kb % 2 == 0
        down = ctx.lam_fields[ka].bracket(ctx.lam_fields[kb]) if even else None
        yield from _pushforward(f"[{na},{nb}]", up, cat.pmap, down)


_claim("fields.table.{1}_{2}", "[{1},{2}] matches its displayed expansion",
       members=lambda g: [("table_rels", *r[:2]) for r in reference.BRACKET_TABLE[g]],
       )(_relation)


@_claim("fields.detTcal_factor", "det of the action matrix = {tcal_c} * det T o p")
def _dettcal_factor(ctx, mode, pit, rng):
    """Exact mode proves det Tcal = c * det(T o p) on small matrices
    (``genus_fields.det_factor_residuals``): the block product, det J_minor
    != 0 (else it says nothing about det Tcal) and det A = sigma * eps * c *
    det J_minor; the ring has no zero divisors, so the identity follows."""
    c = reference.DET_TCAL_FACTOR[ctx.genus]
    if mode == "exact":
        residuals, minor = det_factor_residuals(ctx.cat_zero, ctx.Tcal, ctx.Tp, c)
        if minor.is_zero():
            yield "det J_minor = 0", "the block product proves nothing"
        yield from residuals.items()
        return
    for point in _points(ctx.cat_zero.ring, pit, rng):
        lhs = fraction_det(ctx.Tcal.evaluate(point))
        rhs = c * fraction_det(ctx.T.evaluate(ctx.cat_zero.pmap.evaluate(point)))
        yield f"det Tcal - c * det(T o p) at {point}", lhs - rhs


@_claim("fields.normalization",
        "triangular depth-1 normalization forces zero parameters", genera=(2,))
def _normalization(ctx, mode, pit, rng):
    for param, value in solve_genus2_normalization(ctx.cat).items():
        if value != 0:
            yield param, f"forced to {value}, not 0"


@_claim("fields.classical_table",
        "classical-notation table translates onto the computed table")
def _classical_table(ctx, mode, pit, rng):
    mism = compare_tables(ctx.base, reference.CLASSICAL_TABLE[ctx.genus])
    for (left, right), diffs in sorted(mism.items()):
        for fname, d in sorted(diffs.items()):
            yield f"[{left},{right}] on {fname}", d.to_text()


@_claim("fields.jacobi", "Jacobi identity over all field triples",
        apart=("cat", "pairs"))
def _jacobi(ctx, mode, pit, rng):
    # only the inner brackets [A, B] with A before B are built, since
    # [C, A] = -[A, C] by the definition of the commutator
    fields, pair = ctx.cat.fields, ctx.pairs
    for a, b, c in combinations(ctx.cat.names, 3):
        res = bracket_sum([(1, fields[a], pair[b, c]), (-1, fields[b], pair[a, c]),
                           (1, fields[c], pair[a, b])])
        yield f"jacobi({a},{b},{c})", res


def _registered(genus: int):
    """(id, anchor, claim, key, apart) of every entry for one genus, in
    ``_CLAIMS`` order."""
    constants = {
        "r_weight": reference.r_weight(genus),
        "dett_c": reference.DETT_R_CONSTANT[genus],
        "tcal_c": reference.DET_TCAL_FACTOR[genus],
    }
    for entry_id, genera, anchor, claim, members, apart in _CLAIMS:
        if genus not in genera:
            continue
        for key in members(genus) if members else [()]:
            yield (f"g{genus}.{entry_id.format(*key)}",
                   anchor.format(*key, **constants), claim, key, apart)


def suite_entries(genus: int):
    """All report entries for one genus, in dependency order: (id, anchor,
    fn), fn(ctx, mode, pit, rng) -> (ok, witness) running the entry's claim."""
    return [(entry_id, anchor, partial(_decide, claim, key))
            for entry_id, anchor, claim, key, _ in _registered(genus)]


def apart_builds(genus: int) -> dict:
    """{entry id: builds} of the entries that run in the forked child."""
    return {entry_id: apart
            for entry_id, _, _, _, apart in _registered(genus) if apart}


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


def _received(data: bytes, owed) -> list | None:
    """The child's entries, or None unless ``data`` is one well-formed row
    (id, status, residual, wall_time) for each owed entry, in order."""
    try:
        rows = json.loads(data)
    except ValueError:
        return None
    if not isinstance(rows, list) or len(rows) != len(owed):
        return None
    entries = []
    for row, (_, entry_id, anchor, _) in zip(rows, owed):
        if not (isinstance(row, list) and len(row) == 4 and row[0] == entry_id
                and (row[1] == "pass" and row[2] is None
                     or row[1] == "fail" and isinstance(row[2], str))
                and type(row[3]) in (int, float)):
            return None
        entries.append(ReportEntry(entry_id, anchor, *row[1:]))
    return entries


def _beside(own, owed, run) -> list:
    """``run(*e)`` for every e of ``own`` and of ``owed``, the owed ones in
    one forked child while this process runs its own.

    The child inherits every build made so far copy-on-write, sends plain
    rows back over a pipe and leaves by ``os._exit``, so no inherited
    buffer or exit handler runs twice.  If it exits nonzero or sends a short
    or malformed message, each entry it owed fails with a witness naming its
    exit status.  Where ``os.fork`` is missing or raises, the owed entries
    run here, after the others.
    """
    pid = None
    if owed and hasattr(os, "fork"):
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
    if pid is None:
        return [run(*e) for e in own + owed]
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            rows = [[e.id, e.status, e.residual, e.wall_time]
                    for e in [run(*o) for o in owed]]
            with open(write_end, "wb") as pipe:
                pipe.write(json.dumps(rows).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        entries = [run(*e) for e in own]
    finally:
        with open(read_end, "rb") as pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    received = _received(data, owed) if code == 0 else None
    if received is None:
        problem = f"forked child exited with status {code}" + (
            " after a malformed report" if code == 0 else "")
        received = [ReportEntry(entry_id, anchor, "fail", problem)
                    for _, entry_id, anchor, _ in owed]
    return entries + received


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
    own, owed = [], []
    for g in genera:
        ctx, apart = SuiteContext(g), apart_builds(g)
        for entry_id, anchor, fn in suite_entries(g):
            if entry_id not in apart:
                own.append((ctx, entry_id, anchor, fn))
                continue
            owed.append((ctx, entry_id, anchor, fn))
            try:  # built here, so the forked child inherits them
                for key in apart[entry_id]:
                    getattr(ctx, key)
            except Exception:  # the entry meets it again and reports it
                pass
    for entry in _beside(own, owed, partial(_run_entry, mode=mode, pit=pit)):
        report.add(entry)
    report.sort()
    return report
