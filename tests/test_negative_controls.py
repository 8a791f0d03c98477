"""Negative controls for the claim runner.

For each kind of residual a claim can yield (a Poly, a Derivation, a number,
a problem string) one reference datum is perturbed.  Exactly the entry that
reads it must fail, in exact and in pit mode, with a witness in that kind's
format, while every other genus-1 and genus-2 entry still passes.
"""

import re
from fractions import Fraction
from itertools import combinations

import pytest

from hyperlie import (Derivation, PolyMatrix, Ring, derivation, genus_fields, param_map,
                      reference, suite)
from hyperlie.classical import symbol_env
from hyperlie.genus_fields import (_catalog_cached, parse_coeff, read_relations, seed_texts,
                                   structure_functions)
from hyperlie.suite import PitConfig, SuiteContext, _decide, run_suite


def _table_row(genus, left, right):
    return next(r for r in reference.BRACKET_TABLE[genus] if r[:2] == (left, right))


# kind: (entry id, perturbation, {mode: witness pattern})
CONTROLS = {
    "poly": (
        "g1.map.components_match",
        # displayed: -3*x2^2 + 1/2*x4
        lambda mp: mp.setitem(reference.MAP[1], "l4", "-2*x2^2 + 1/2*x4"),
        {"exact": r"l4: \S", "pit": r"l4 at \{.*\} -> -?\d"},
    ),
    "derivation": (
        "g2.fields.table.L1_L2",
        # displayed: x2
        lambda mp: mp.setitem(_table_row(2, "L1", "L2")[2], "L1", "2*x2"),
        {"exact": r"\[L1,L2\]\.\w+: \S", "pit": r"\[L1,L2\]\.\w+ at \{.*\} -> -?\d"},
    ),
    "number": (
        "g1.params.detT_eq_cR",
        # displayed: -4/3
        lambda mp: mp.setitem(reference.DETT_R_CONSTANT, 1, Fraction(-5, 3)),
        {"exact": r"detT - c\*R: \S", "pit": r"detT - c\*R at \{.*\} -> -?\d"},
    ),
    "problem": (
        "g1.fields.classical_table",
        # displayed: P2
        lambda mp: mp.setitem(reference.CLASSICAL_TABLE[1][0][2], "L1", "2*P2"),
        {"exact": r"\[L1,L2\] on \w+: \S", "pit": r"\[L1,L2\] on \w+: \S"},
    ),
}


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("kind", list(CONTROLS))
def test_perturbed_datum_fails_only_its_entry(monkeypatch, kind, mode):
    entry_id, perturb, witness = CONTROLS[kind]
    perturb(monkeypatch)
    failures = {
        e.id: e.residual
        for g in (1, 2)
        for e in run_suite(g, mode, PitConfig(seed=1)).failures()
    }
    assert list(failures) == [entry_id]
    assert re.match(witness[mode], failures[entry_id], re.S), failures[entry_id]


def _three_bracket_jacobi(ctx, mode, pit, rng):
    """The genus's Jacobi claim stated with three brackets and two
    derivation sums per triple, as a reference for the fused kernel."""
    names = ctx.cat.names
    fields = [ctx.cat.fields[n] for n in names]
    pair = {
        (a, b): fields[a].bracket(fields[b])
        for a, b in combinations(range(len(fields)), 2)
    }
    for a, b, c in combinations(range(len(fields)), 3):
        A, B, C = fields[a], fields[b], fields[c]
        res = A.bracket(pair[b, c]) - B.bracket(pair[a, c]) + C.bracket(pair[a, b])
        yield f"jacobi({names[a]},{names[b]},{names[c]})", res


def test_perturbed_pair_bracket_fails_jacobi(monkeypatch):
    """The one-bracket ``bracket_sum`` for (L1, L2), which both
    ``Derivation.bracket`` and ``BracketRelation.residual`` call, gains
    x2*d/dx2.  The [L1,L2] row now fails its check, so
    ``g2.fields.table.L1_L2`` fails, and the pair is solved from the
    perturbed bracket, which no structure functions of weight 3 - wt(k)
    reproduce: the Jacobi entry must fail in both modes with the problem
    item of that pair.  Building the catalog brackets no two fields, so
    whether it is built before the perturbation does not matter."""
    bracket_sum = derivation.bracket_sum

    def perturbed(terms, *args, **kwargs):
        out = bracket_sum(terms, *args, **kwargs)
        if [(s, X.name, Y.name) for s, X, Y in terms] == [(1, "L1", "L2")]:
            out = out + Derivation("E", out.ring, {"x2": out.ring.var("x2")})
        return out

    monkeypatch.setattr(derivation, "bracket_sum", perturbed)
    for mode in ("exact", "pit"):
        failures = {e.id: e.residual for e in run_suite(2, mode, PitConfig(seed=1)).failures()}
        assert "g2.fields.table.L1_L2" in failures, mode
        assert failures.get("g2.fields.jacobi") == "[L1,L2]: no solution", failures


def test_corrupted_genus3_table_row_keeps_its_witness(monkeypatch):
    """The genus-3 [L3,L4] row as the benchmark's negative control corrupts
    it: only its table entry fails, with the witness of the first nonzero
    residual component."""
    monkeypatch.setitem(_table_row(3, "L3", "L4")[2], "L3", "y4 - 2*l4")  # displayed: y4 - l4
    failures = {e.id: e.residual for e in run_suite(3, "exact").failures()}
    assert failures == {
        "g3.fields.table.L3_L4": "[L3,L4].x2: -3*x2^2*y5 + 1/2*x4*y5 - 2*y4*y5",
    }


def test_clean_suite_never_solves_structure_functions(monkeypatch):
    """A clean run decides Jacobi, the pushforward homomorphism and tangency
    on the displayed expansions, so it solves no structure functions on
    either space; a wrong displayed row is solved for its own pair only,
    once on each space that reads it, and the entries that read the
    structure functions pass on the solution."""
    calls = []
    solve = genus_fields.structure_functions

    def counting(fields, a, b):
        calls.append((sorted(fields), a, b))
        return solve(fields, a, b)

    monkeypatch.setattr(genus_fields, "structure_functions", counting)
    for g in (1, 2, 3):
        for mode in ("exact", "pit"):
            assert run_suite(g, mode, PitConfig(seed=1)).passed
    assert calls == []
    monkeypatch.setitem(_table_row(1, "L1", "L2")[2], "L1", "2*x2")  # displayed: x2
    failures = [e.id for e in run_suite(1, "exact").failures()]
    assert "g1.fields.table.L1_L2" in failures
    assert not {"g1.fields.jacobi", "g1.fields.pushforward_homomorphism"} & set(failures)
    assert calls == [(["L0", "L1", "L2"], "L1", "L2")]
    # an l-symbol coefficient is read on both spaces, and solved on both
    calls.clear()
    monkeypatch.setitem(_table_row(2, "L2", "L4")[2], "L0", "9/5*l6")  # displayed: 8/5*l6
    failures = [e.id for e in run_suite(2, "exact").failures()]
    assert failures == ["g2.fields.table.L2_L4", "g2.params.tangency"]
    assert sorted(calls) == [(["L0", "L1", "L2", "L3", "L4", "L6"], "L2", "L4"),
                             (["L0", "L2", "L4", "L6"], "L2", "L4")]


def test_pair_without_a_row_is_solved(monkeypatch):
    """With no displayed table row, the pair the Euler rows leave out is
    solved, and both entries pass on the solved coefficients, which are the
    displayed ones."""
    want = SuiteContext(1).structure[1]["L1", "L2"]
    monkeypatch.setitem(reference.BRACKET_TABLE, 1, [])
    ctx = SuiteContext(1)
    assert list(ctx.structure[0]) == ["[L0,L1]", "[L0,L2]"]  # the Euler rows only
    for claim in (suite._jacobi, suite._pushforward_homomorphism):
        assert _decide(claim, (), ctx, "exact", PitConfig(), None) == (True, None)
    assert ctx.structure[1]["L1", "L2"] == {k: c for k, c in want.items() if c}


@pytest.mark.parametrize("genus,pairs", [
    (1, None), (2, None), (3, [("L3", "L4"), ("L8", "L10")]),
])
def test_solved_structure_functions_equal_the_displayed(genus, pairs):
    """The weight ansatz has a unique solution, the displayed coefficients,
    on every pair at genus 1 and 2 (on the symbolic genus-2 catalog), and
    on the cheapest and the dearest genus-3 pair."""
    ctx = SuiteContext(genus)
    for a, b in pairs or combinations(ctx.cat.names, 2):
        want = {k: c for k, c in ctx.structure[1][a, b].items() if c}
        assert structure_functions(ctx.cat.fields, a, b) == want, (a, b)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_solved_parameter_space_structure_functions_equal_the_displayed(genus):
    """On parameter space too the weight ansatz has a unique solution on
    every pair (1, 6 and 15 pairs), the displayed coefficients."""
    ctx = SuiteContext(genus)
    fields = {f"L{k}": L for k, L in ctx.lam_fields.items()}
    _, exp, problem = ctx.lam_structure
    assert problem is None
    pairs = list(combinations(sorted(ctx.lam_fields), 2))
    assert len(pairs) == [1, 6, 15][genus - 1]
    for i, j in pairs:
        a, b = f"L{i}", f"L{j}"
        want = {k: c for k, c in exp[a, b].items() if c}
        assert structure_functions(fields, a, b) == want, (a, b)


def test_nonzero_residual_fails_in_pit_mode_where_every_point_vanishes():
    """A residual with a root at every integer of [-211, 211] vanishes at
    every sample point; being nonzero, it must fail all the same."""
    ring = Ring([("x", 1)])
    x = ring.var("x")
    residual = ring.one
    for k in range(-211, 212):
        residual = residual * (x - k)

    def claim(ctx, mode, pit, rng):
        yield "roots", residual

    want = _decide(claim, (), None, "exact", PitConfig(), None)
    assert want[0] is False and want[1].startswith("roots: ")
    rng = suite._entry_rng(0, "roots")
    assert _decide(claim, (), None, "pit", PitConfig(), rng) == want
    # a point off the roots is the witness whenever the sample finds one
    rng = suite._entry_rng(0, "shifted")
    ok, witness = _decide(lambda *a: iter([("shifted", residual * x + 1)]), (),
                          None, "pit", PitConfig(), rng)
    assert not ok and witness.startswith("shifted at {'x': ")


def _perturbed_expansions(genus, pair, field, delta):
    """A genus's checked expansions with c_pair^field + delta, and -delta on
    the reversed pair, fed straight to the claims past the row checks."""
    ctx = SuiteContext(genus)
    residuals, exp, _ = ctx.structure
    exp = {p: dict(coeffs) for p, coeffs in exp.items()}
    delta = parse_coeff(ctx.cat, delta)
    for (a, b), sign in ((pair, 1), (pair[::-1], -1)):
        exp[a, b][field] = exp[a, b].get(field, ctx.cat.ring.zero) + sign * delta
    ctx._memo["structure"] = residuals, exp, None
    return ctx


@pytest.mark.parametrize("genus,pair,field,delta,triples", [
    (3, ("L3", "L4"), "L3", "-l4", 20),  # displayed: y4 - l4, made y4 - 2*l4
    (2, ("L1", "L2"), "L1", "x2", 7),  # displayed: x2, made 2*x2
], ids=["g3-L3_L4", "g2-L1_L2"])
def test_structure_jacobi_fails_on_a_perturbed_expansion(genus, pair, field, delta, triples):
    ctx = _perturbed_expansions(genus, pair, field, delta)
    failing = {label.split(" on ")[0]
               for label, _ in suite._structure_jacobi(ctx.cat, ctx.structure[1])}
    assert len(failing) == triples
    ok, witness = _decide(suite._jacobi, (), ctx, "exact", PitConfig(), None)
    assert not ok and re.match(r"jacobi\(L\d+,L\d+,L\d+\) on L\d+: \S", witness), witness


def _pushforward_failures(ctx):
    return [(label, r) for label, r in
            suite._pushforward_homomorphism(ctx, "exact", PitConfig(), None) if r]


def test_expanded_pushforward_fails_on_a_perturbed_expansion():
    """The pushforward homomorphism compares c_ab^k with p*(c^l_ab^k), so a
    perturbed c_{L2,L4}^{L0} fails that one coefficient, by the perturbation."""
    ctx = _perturbed_expansions(3, ("L2", "L4"), "L0", "1")
    assert _pushforward_failures(ctx) == [("[L2,L4] on L0", ctx.cat.ring.one)]
    ok, witness = _decide(suite._pushforward_homomorphism, (), ctx, "exact", PitConfig(), None)
    assert (ok, witness) == (False, "[L2,L4] on L0: 1")


def test_pushforward_fails_on_a_perturbed_parameter_space_coefficient():
    """A parameter-space c^l_{L4,L6}^{L2} made c + l4 fails its coefficient
    with the pulled-back perturbation -p*(l4), in both modes."""
    ctx = SuiteContext(3)
    residuals, lexp, _ = ctx.lam_structure
    lexp = {p: dict(coeffs) for p, coeffs in lexp.items()}
    l4 = ctx.model.ring.var("l4")
    for pair, sign in ((("L4", "L6"), 1), (("L6", "L4"), -1)):
        lexp[pair]["L2"] = lexp[pair].get("L2", ctx.model.ring.zero) + sign * l4
    ctx._memo["lam_structure"] = residuals, lexp, None
    assert _pushforward_failures(ctx) == [("[L4,L6] on L2", -ctx.cat.pmap.pullback(l4))]
    for mode, pattern in (("exact", r"\[L4,L6\] on L2: \S"),
                          ("pit", r"\[L4,L6\] on L2 at \{.*\} -> -?\d")):
        rng = suite._entry_rng(1, "g3.fields.pushforward_homomorphism")
        ok, witness = _decide(suite._pushforward_homomorphism, (), ctx, mode, PitConfig(), rng)
        assert not ok and re.match(pattern, witness), witness


def test_pushforward_fails_on_an_odd_pair_with_an_even_field_coefficient():
    """[L1, L2] projects to 0, so its coefficient on an even field must be 0:
    given c_{L1,L2}^{L2} = x2 it fails there, and only there."""
    ctx = _perturbed_expansions(3, ("L1", "L2"), "L2", "x2")
    assert "L2" not in SuiteContext(3).structure[1]["L1", "L2"]
    assert _pushforward_failures(ctx) == [("[L1,L2] on L2", parse_coeff(ctx.cat, "x2"))]


@pytest.mark.parametrize("genus", [1, 2])
def test_structure_jacobi_agrees_with_three_brackets(genus):
    ctx = SuiteContext(genus)
    structure = {label.split(" on ")[0]
                 for label, _ in suite._structure_jacobi(ctx.cat, ctx.structure[1])}
    three = {label for label, res in _three_bracket_jacobi(ctx, "exact", None, None)
             if not res.is_zero()}
    assert structure == three == set()
    assert _decide(suite._jacobi, (), ctx, "exact", PitConfig(), None) == (
        _decide(_three_bracket_jacobi, (), ctx, "exact", PitConfig(), None))


# non-seed displayed actions of the even fields: (genus, field, variable)
NON_SEEDS = [(1, "L2", v) for v in ("x3", "x4")] + [
    (2, name, v) for name in ("L2", "L4", "L6") for v in ("x3", "x4", "y5", "y6")
]


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("genus,name,var", NON_SEEDS)
def test_non_seed_display_is_checked_not_read(monkeypatch, genus, name, var, mode):
    """The catalog reads no non-seed displayed action of an even field, so
    doubling one must fail both entries that compare the built field with
    its display, with the entry's witness format."""
    text = reference.FIELD_ACTIONS[genus][name][var]
    monkeypatch.setitem(reference.FIELD_ACTIONS[genus][name], var, f"2*({text})")
    ctx, rng = SuiteContext(genus), suite._entry_rng(1, "display")
    point = r" at \{.*\} -> -?\d" if mode == "pit" else r": \S"
    for claim, label in ((suite._displayed_actions, rf"{name}\({var}\)"),
                         (suite._even_ladder_agrees, rf"{name}\.{var}")):
        ok, witness = _decide(claim, (), ctx, mode, PitConfig(seed=1), rng)
        assert not ok and re.match(label + point, witness, re.S), witness


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("genus,name,var,text", [
    (1, "L2", "x4", "2*x2*x4 + 4*x3^2"),  # displayed: 2*x2*x4 + 3*x3^2
    (2, "L4", "x3", "2*x3*y4 + 10*x2*y5"),  # displayed: x3*y4 + 5*x2*y5
])
def test_perturbed_non_seed_fails_only_its_entries(
        monkeypatch, genus, name, var, text, mode):
    monkeypatch.setitem(reference.FIELD_ACTIONS[genus][name], var, text)
    failures = [e.id for e in run_suite(genus, mode, PitConfig(seed=1)).failures()]
    assert failures == [f"g{genus}.fields.displayed_actions",
                        f"g{genus}.fields.even_ladder_agrees"]


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_displayed_actions_yield_no_seed(genus):
    """A seed feeds the ladder build of its field, so comparing the built
    field with it cannot fail; the entry compares every other display."""
    ctx = SuiteContext(genus)
    labels = [label for label, _ in suite._displayed_actions(ctx, "exact", None, None)]
    seeds = {f"{name}({v})" for name, texts in seed_texts(genus).items() for v in texts}
    assert labels and not seeds & set(labels)


def _mutant_failures(monkeypatch, genus, mode):
    """{id: witness} of every failing entry of ``genus``, decided as
    ``run_suite`` does on a fresh catalog of the data ``monkeypatch`` has
    changed, after checking that no entry failed by raising; the data and
    the catalog cache are restored after."""
    _catalog_cached.cache_clear()
    try:
        ctx, pit = SuiteContext(genus), PitConfig(seed=1)
        entries = [suite._run_entry(ctx, entry_id, anchor, fn, mode, pit)
                   for entry_id, anchor, fn in suite.suite_entries(genus)]
    finally:
        monkeypatch.undo()
        _catalog_cached.cache_clear()
    failures = {e.id: e.residual for e in entries if e.status == "fail"}
    assert not [w for w in failures.values() if w.startswith("exception:")], failures
    return failures


# the witness of a nonzero Poly residual after its label, in each mode
_RESIDUAL = {"exact": r": \S", "pit": r" at \{.*\} -> -?\d"}


def _seed_grid(genus, name):
    """The displayed dict that holds the seeds of the even field ``name``."""
    return reference.EVEN_SEEDS_G3[name] if genus == 3 else reference.FIELD_ACTIONS[genus][name]


def _assert_seed_fails_its_row(failures, genus, name, mode):
    """The row [L1, Lk] fails with a residual witness, and the
    parameter-space entries pass."""
    witness = failures.get(f"g{genus}.fields.table.L1_{name}", "")
    assert re.match(rf"\[L1,{name}\]\.\w+" + _RESIDUAL[mode], witness, re.S), failures
    assert not any(".params." in entry_id for entry_id in failures)


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("genus,name,var,text", [
    (1, "L2", "x2", "2/3*x4 - 3*x2^2"),  # displayed: 2/3*x4 - 2*x2^2
    (2, "L4", "y4", "-6/5*l6*x2 + 2*l4*y4 - 4*x2^2*y4 + x4*y4 - 3/2*x3*y5"),
], ids=["g1-L2-x2", "g2-L4-y4"])
def test_corrupted_seed_fails_its_table_row(monkeypatch, genus, name, var, text, mode):
    """The ladder takes a seed as given, so a wrong one builds a field whose
    displayed row [L1, Lk] fails with its residual, not a build error."""
    monkeypatch.setitem(_seed_grid(genus, name), var, text)
    _assert_seed_fails_its_row(_mutant_failures(monkeypatch, genus, mode), genus, name, mode)


# every displayed seed: (genus, field, variable)
SEEDS = [(g, name, v) for g in (1, 2, 3) for name, texts in seed_texts(g).items()
         for v in texts]


def test_seed_sweep_covers_every_displayed_seed():
    assert [sum(g == genus for g, _, _ in SEEDS) for genus in (1, 2, 3)] == [1, 6, 15]


@pytest.mark.parametrize("genus,name,var,mode", [
    (g, name, v, mode) for g, name, v in SEEDS
    for mode in (["exact", "pit"] if (name, v) == ("L2", "x2") else ["exact"])
])
def test_every_seed_is_decided_by_its_table_row(monkeypatch, genus, name, var, mode):
    """Each seed plus x2^n, a monomial of the seed's own weight, so no
    homogeneity check can catch it."""
    n = (int(name[1:]) + int(var[1:])) // 2
    grid = _seed_grid(genus, name)
    monkeypatch.setitem(grid, var, f"{grid[var]} + x2^{n}")
    failures = _mutant_failures(monkeypatch, genus, mode)
    _assert_seed_fails_its_row(failures, genus, name, mode)


@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_alternate_aux_definition_fails_only_aux_match(monkeypatch, mode):
    """The catalog reads only the first definition of each auxiliary
    polynomial; a later one, p9 = L3(z6) with z6 swapped for y6 of the same
    weight, fails exactly its own entry with its own label."""
    rows = [("p9", "L3", "y6") if row == ("p9", "L3", "z6") else row
            for row in reference.AUX_DEFS[3]]
    assert rows != reference.AUX_DEFS[3]
    monkeypatch.setitem(reference.AUX_DEFS, 3, rows)
    failures = _mutant_failures(monkeypatch, 3, mode)
    assert list(failures) == ["g3.fields.aux_match"]
    assert re.match(r"L3\(y6\) - p9" + _RESIDUAL[mode], failures["g3.fields.aux_match"])


def test_wrong_elimination_fails_relations_vanish(monkeypatch):
    """An eliminated w6 plus x2^3, of its own weight: the map build takes it
    as given, and ``map.relations_vanish`` fails with the label and residual
    of a relation it breaks."""
    eliminate = param_map.eliminate

    def wrong(rels):
        jm = eliminate(rels)
        x2 = jm.ring.var("x2")
        return jm._replace(w_exprs={**jm.w_exprs, (3, 3): jm.w_exprs[3, 3] + x2 ** 3})

    monkeypatch.setattr(param_map, "eliminate", wrong)
    failures = _mutant_failures(monkeypatch, 2, "exact")
    witness = failures["g2.map.relations_vanish"]
    assert re.match(r"\S+: \S", witness), witness


@pytest.mark.parametrize("genus,pair,field,text", [
    (1, ("L1", "L2"), "L1", "2*P2"),  # displayed: P2
    (3, ("L1", "L4"), "L3", "2*P2"),  # displayed: P2
    (2, ("L1", "L4"), "L3", "2*P2"),  # displayed: P2
])
def test_classical_row_decided_from_the_table_keeps_the_direct_witness(
        monkeypatch, genus, pair, field, text):
    """A classical row is decided from the structure functions with no
    bracket, on the zero-parameter genus-2 catalog too (its coefficients
    read at the parameters' value 0); a corrupted row still gives the
    witness of its own bracket relation."""
    calls = []
    bracket_sum = derivation.bracket_sum

    def counting(terms, *args, **kwargs):
        calls.extend(terms)
        return bracket_sum(terms, *args, **kwargs)

    ctx = SuiteContext(genus)
    ctx.structure  # the displayed rows' brackets, made before counting
    monkeypatch.setattr(derivation, "bracket_sum", counting)
    assert _decide(suite._classical_table, (), ctx, "exact", None, None) == (True, None)
    assert calls == []

    row = next(r for r in reference.CLASSICAL_TABLE[genus] if r[:2] == pair)
    monkeypatch.setitem(row[2], field, text)
    rows = reference.CLASSICAL_TABLE[genus]
    (rel,) = read_relations(ctx.cat_zero.fields, [row], symbol_env(ctx.cat_zero, rows))
    v, diff = min(rel.residual().action.items())
    want = f"[{pair[0]},{pair[1]}] on {v}: {diff.to_text()}"
    calls.clear()
    assert _decide(suite._classical_table, (), ctx, "exact", None, None) == (False, want)
    assert calls == []


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("genus,index,text,residual", [
    (1, 0, "13", "-1"),  # displayed: 12
    (2, 2, "13*l4", "-l4"),  # displayed: 12*l4
])
def test_perturbed_multiplier_fails_only_tangency(monkeypatch, genus, index, text,
                                                  residual, mode):
    mults = list(reference.TANGENCY_MULTIPLIERS[genus])
    mults[index] = text
    monkeypatch.setitem(reference.TANGENCY_MULTIPLIERS, genus, mults)
    failures = {e.id: e.residual
                for e in run_suite(genus, mode, PitConfig(seed=1)).failures()}
    assert list(failures) == [f"g{genus}.params.tangency"]
    label = f"div L{2 * index} + tr c_{2 * index} - m"
    witness = failures[f"g{genus}.params.tangency"]
    if mode == "exact":
        assert witness == f"{label}: {residual}"
    else:
        assert re.match(re.escape(label) + r" at \{.*\} -> -?\d", witness), witness


@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_perturbed_even_coefficient_fails_tangency_and_its_row(monkeypatch, mode):
    """The L0 coefficient of the genus-2 [L2,L4] row is an l-symbol text read
    on both spaces: by the row's check on generator space and by the
    parameter-space relation that Saito's identity rests on."""
    monkeypatch.setitem(_table_row(2, "L2", "L4")[2], "L0", "9/5*l6")  # displayed: 8/5*l6
    failures = {e.id: e.residual for e in run_suite(2, mode, PitConfig(seed=1)).failures()}
    assert sorted(failures) == ["g2.fields.table.L2_L4", "g2.params.tangency"]
    point = r" at \{.*\} -> -?\d" if mode == "pit" else r": \S"
    assert re.match(r"\[L2,L4\]\.l\d+" + point, failures["g2.params.tangency"])


@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_uncovered_parameter_space_pair_is_solved(monkeypatch, mode):
    """Without the genus-2 [L2,L4] row no displayed relation covers that
    parameter-space pair: it is solved, to the displayed coefficients, and
    tangency passes on the solution."""
    want = SuiteContext(2).lam_structure[1]["L2", "L4"]
    rows = [r for r in reference.BRACKET_TABLE[2] if r[:2] != ("L2", "L4")]
    monkeypatch.setitem(reference.BRACKET_TABLE, 2, rows)
    ctx = SuiteContext(2)
    assert "[L2,L4]" not in ctx.lam_structure[0]
    assert _decide(suite._tangency, (), ctx, mode, PitConfig(seed=1),
                   suite._entry_rng(1, "g2.params.tangency")) == (True, None)
    assert ctx.lam_structure[1]["L2", "L4"] == {k: c for k, c in want.items() if c}


def _plus(matrix, cells, text):
    """``matrix`` with ``text`` added to each entry of ``cells``."""
    rows = [list(row) for row in matrix.rows]
    for i, j in cells:
        rows[i][j] = rows[i][j] + matrix.ring.parse(text)
    return PolyMatrix(matrix.ring, rows)


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("build,cells,text,exact_witness", [
    # T(1,2) has weight 6
    ("T", [(0, 1)], "l6", r"n\*T\(1,2\) \+ 2\*S\(6,5\): \S"),
    # a symmetric pair of weight 14
    ("bezout", [(2, 3), (3, 2)], "l14", r"n\*T\(3,4\) \+ 2\*S\(4,3\): \S"),
    # the corner 7 made 0
    ("bezout", [(6, 6)], "-7", r"Bezout corner: not a nonzero constant$"),
], ids=["T", "bezout-pair", "bezout-corner"])
def test_perturbed_matrix_entry_fails_detT_eq_cR(monkeypatch, build, cells, text,
                                                 exact_witness, mode):
    """Exact mode proves det T = c*R from n*T = -2*J*S*J entry by entry, so a
    same-weight monomial on one T entry or one symmetric pair of Bezout
    entries fails an entry residual; pit mode's sampled determinants differ."""
    original = suite._BUILDS[build]
    monkeypatch.setitem(suite._BUILDS, build, lambda ctx: _plus(original(ctx), cells, text))
    entry_id = "g3.params.detT_eq_cR"
    ok, witness = _decide(suite._dett_eq_cr, (), SuiteContext(3), mode, PitConfig(seed=1),
                          suite._entry_rng(1, entry_id))
    pattern = exact_witness if mode == "exact" else r"detT - c\*R at \{.*\} -> -?\d"
    assert not ok and re.match(pattern, witness), witness


@pytest.mark.parametrize("genus,constant,residual", [
    (2, Fraction(17, 5), "1/5"),  # displayed: 16/5
    (3, Fraction(-65, 7), "-1/7"),  # displayed: -64/7
])
def test_perturbed_constant_fails_detT_eq_cR_exactly(monkeypatch, genus, constant, residual):
    monkeypatch.setitem(reference.DETT_R_CONSTANT, genus, constant)
    failures = {e.id: e.residual for e in run_suite(genus, "exact").failures()}
    assert failures == {f"g{genus}.params.detT_eq_cR": f"detT - c*R: {residual}"}


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("genus,cell,text,witness", [
    (1, (0, 1), "l4", "B(1,2): not homogeneous of weight 6"),
    (2, (1, 3), "l4", "B(2,4): not homogeneous of weight 8"),
    (3, (0, 0), "l6^2*l10", "B(1,1): not homogeneous of weight 24"),
])
def test_wrong_weight_bezout_entry_fails_R_weight(monkeypatch, genus, cell, text, witness,
                                                 mode):
    """``params.R_weight`` reads R's weight off the Bezout entries, so one
    term of the wrong weight in one entry fails it, in both modes."""
    original = suite._BUILDS["bezout"]
    monkeypatch.setitem(suite._BUILDS, "bezout",
                        lambda ctx: _plus(original(ctx), [cell], text))
    rng = suite._entry_rng(1, f"g{genus}.params.R_weight")
    assert _decide(suite._r_weight, (), SuiteContext(genus), mode, PitConfig(seed=1),
                   rng) == (False, witness)


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("genus", [1, 2, 3])
def test_bezout_singular_at_the_certificate_point_fails_R_weight(monkeypatch, genus, mode):
    """B(1,1) plus t*l4^(2g), of its own weight, with t chosen so that det B
    vanishes at l = 1 but not at l = 2: every entry keeps its weight, and
    the certificate det B(1) != 0 alone fails."""
    original = suite._BUILDS["bezout"]

    def singular_at_one(ctx):
        B = original(ctx)
        one = dict.fromkeys(B.ring.names, 1)
        minor = [row[1:] for row in B.evaluate(one)[1:]]
        t = -suite.fraction_det(B.evaluate(one)) / suite.fraction_det(minor)
        return _plus(B, [(0, 0)], f"{t}*l4^{2 * genus}")

    monkeypatch.setitem(suite._BUILDS, "bezout", singular_at_one)
    ctx = SuiteContext(genus)
    assert suite.fraction_det(ctx.bezout.evaluate(dict.fromkeys(ctx.model.ring.names, 2)))
    rng = suite._entry_rng(1, f"g{genus}.params.R_weight")
    assert _decide(suite._r_weight, (), ctx, mode, PitConfig(seed=1), rng) == (
        False, "det B at l = 1: 0, so nothing shows R != 0")
