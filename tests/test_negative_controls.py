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

from hyperlie import Derivation, Ring, derivation, reference, suite
from hyperlie.classical import symbol_env
from hyperlie.genus_fields import (_catalog_cached, catalog, parse_coeff, read_relations,
                                   seed_texts)
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
    x2*d/dx2.  The Jacobi entry must fail in both modes, and its exact
    witness must be the one the three-bracket form gives.  The [L1,L2] row
    now fails its check, so ``g2.fields.table.L1_L2`` fails as well and the
    Jacobi entry falls back to the whole-field brackets.  The other entries
    that bracket L1 with L2 fail too: classical_table, normalization and
    pushforward_homomorphism.  The catalog is built before the perturbation,
    since its ladder check brackets L1 with every even field."""
    catalog(2)
    bracket_sum = derivation.bracket_sum

    def perturbed(terms, *args, **kwargs):
        out = bracket_sum(terms, *args, **kwargs)
        if [(s, X.name, Y.name) for s, X, Y in terms] == [(1, "L1", "L2")]:
            out = out + Derivation("E", out.ring, {"x2": out.ring.var("x2")})
        return out

    monkeypatch.setattr(derivation, "bracket_sum", perturbed)
    witness = {}
    for mode in ("exact", "pit"):
        failures = {e.id: e.residual for e in run_suite(2, mode, PitConfig(seed=1)).failures()}
        assert "g2.fields.table.L1_L2" in failures, mode
        witness[mode] = failures.get("g2.fields.jacobi")
        assert witness[mode] is not None, mode
    assert re.match(r"jacobi\(L\d,L\d,L\d\)\.\w+ at \{.*\} -> -?\d", witness["pit"])
    ok, want = _decide(_three_bracket_jacobi, (), SuiteContext(2), "exact", PitConfig(), None)
    assert not ok
    assert witness["exact"] == want


def test_corrupted_genus3_table_row_keeps_its_witness(monkeypatch):
    """The genus-3 [L3,L4] row as the benchmark's negative control corrupts
    it: only its table entry fails, with the witness of the first nonzero
    residual component."""
    monkeypatch.setitem(_table_row(3, "L3", "L4")[2], "L3", "y4 - 2*l4")  # displayed: y4 - l4
    failures = {e.id: e.residual for e in run_suite(3, "exact").failures()}
    assert failures == {
        "g3.fields.table.L3_L4": "[L3,L4].x2: -3*x2^2*y5 + 1/2*x4*y5 - 2*y4*y5",
    }


def test_clean_suite_never_builds_pairs(monkeypatch):
    """A clean run decides Jacobi and the pushforward homomorphism on the
    checked expansions, so the whole-field ``pairs`` build never runs; a
    wrong displayed row brings it back for that genus."""
    built = []
    get = SuiteContext._get

    def counting(self, key, builder):
        if key not in self._memo:
            built.append((self.genus, key))
        return get(self, key, builder)

    monkeypatch.setattr(SuiteContext, "_get", counting)
    for g in (1, 2, 3):
        for mode in ("exact", "pit"):
            assert run_suite(g, mode, PitConfig(seed=1)).passed
    assert {g for g, key in built if key == "expansions"} == {1, 2, 3}
    assert [b for b in built if b[1] == "pairs"] == []
    monkeypatch.setitem(_table_row(1, "L1", "L2")[2], "L1", "2*x2")  # displayed: x2
    assert not run_suite(1, "exact").passed
    assert (1, "pairs") in built


def test_pair_without_a_row_falls_back(monkeypatch):
    """A pair that no displayed row covers leaves both entries on the
    whole-field brackets, where they still pass."""
    monkeypatch.setitem(reference.BRACKET_TABLE, 1, [])
    ctx = SuiteContext(1)
    assert ctx.expansions is None
    for claim in (suite._jacobi, suite._pushforward_homomorphism):
        assert _decide(claim, (), ctx, "exact", PitConfig(), None) == (True, None)
    assert "pairs" in ctx._memo


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
    exp = {p: dict(coeffs) for p, coeffs in ctx.expansions.items()}
    delta = parse_coeff(ctx.cat, delta)
    for (a, b), sign in ((pair, 1), (pair[::-1], -1)):
        exp[a, b][field] = exp[a, b].get(field, ctx.cat.ring.zero) + sign * delta
    ctx._memo["expansions"] = exp
    return ctx


@pytest.mark.parametrize("genus,pair,field,delta,triples", [
    (3, ("L3", "L4"), "L3", "-l4", 20),  # displayed: y4 - l4, made y4 - 2*l4
    (2, ("L1", "L2"), "L1", "x2", 7),  # displayed: x2, made 2*x2
], ids=["g3-L3_L4", "g2-L1_L2"])
def test_structure_jacobi_fails_on_a_perturbed_expansion(genus, pair, field, delta, triples):
    ctx = _perturbed_expansions(genus, pair, field, delta)
    failing = {label.split(" on ")[0]
               for label, _ in suite._structure_jacobi(ctx.cat, ctx.expansions)}
    assert len(failing) == triples
    ok, witness = _decide(suite._jacobi, (), ctx, "exact", PitConfig(), None)
    assert not ok and re.match(r"jacobi\(L\d+,L\d+,L\d+\) on L\d+: \S", witness), witness


def test_expanded_pushforward_fails_on_a_perturbed_expansion():
    ctx = _perturbed_expansions(3, ("L2", "L4"), "L0", "1")
    failing = [label for label, _ in
               suite._pushforward_homomorphism(ctx, "exact", PitConfig(), None)]
    assert len(failing) == 6
    assert all(label.startswith("[L2,L4] on ") for label in failing)


@pytest.mark.parametrize("genus", [1, 2])
def test_structure_jacobi_agrees_with_three_brackets(genus):
    ctx = SuiteContext(genus)
    structure = {label.split(" on ")[0]
                 for label, _ in suite._structure_jacobi(ctx.cat, ctx.expansions)}
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


@pytest.mark.parametrize("genus,name,var,text", [
    (1, "L2", "x2", "2/3*x4 - 3*x2^2"),  # displayed: 2/3*x4 - 2*x2^2
    (2, "L4", "y4", "-6/5*l6*x2 + 2*l4*y4 - 4*x2^2*y4 + x4*y4 - 3/2*x3*y5"),
])
def test_corrupted_seed_fails_the_catalog_build(monkeypatch, genus, name, var, text):
    """A seed feeds the ladder, whose commutator check then fails: every
    entry that reads the catalog fails with the ``LadderError``, and the
    parameter-space entries still pass."""
    monkeypatch.setitem(reference.FIELD_ACTIONS[genus][name], var, text)
    _catalog_cached.cache_clear()
    try:
        report = run_suite(genus, "exact")
    finally:
        monkeypatch.undo()
        _catalog_cached.cache_clear()
    failures = {e.id: e.residual for e in report.failures()}
    assert f"g{genus}.fields.displayed_actions" in failures
    assert not any(".params." in entry_id for entry_id in failures)
    for witness in failures.values():
        assert witness.startswith("exception: LadderError('inconsistent seeds"), witness


@pytest.mark.parametrize("genus,pair,field,text", [
    (1, ("L1", "L2"), "L1", "2*P2"),  # displayed: P2
    (3, ("L1", "L4"), "L3", "2*P2"),  # displayed: P2
])
def test_classical_row_decided_from_the_table_keeps_the_direct_witness(
        monkeypatch, genus, pair, field, text):
    """On the table's own catalog a classical row is decided from the
    displayed row's residual with no bracket; a corrupted row still gives
    the witness of its own bracket relation."""
    calls = []
    bracket_sum = derivation.bracket_sum

    def counting(terms, *args, **kwargs):
        calls.extend(terms)
        return bracket_sum(terms, *args, **kwargs)

    ctx = SuiteContext(genus)
    ctx.table_res  # the displayed rows' brackets, made before counting
    monkeypatch.setattr(derivation, "bracket_sum", counting)
    assert _decide(suite._classical_table, (), ctx, "exact", None, None) == (True, None)
    assert calls == []

    row = next(r for r in reference.CLASSICAL_TABLE[genus] if r[:2] == pair)
    monkeypatch.setitem(row[2], field, text)
    rows = reference.CLASSICAL_TABLE[genus]
    (rel,) = read_relations(ctx.cat, [row], symbol_env(ctx.cat, rows))
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
def test_missing_parameter_space_relation_fails_tangency(mode):
    ctx = SuiteContext(2)
    del ctx.lam_rels[2, 4]
    assert _decide(suite._tangency, (), ctx, mode, PitConfig(seed=1),
                   suite._entry_rng(1, "g2.params.tangency")) == (
        False, "[L2,L4]: no relation expands this pair")
