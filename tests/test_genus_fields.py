"""Lifted fields: construction, tables, projectability, translation."""

from itertools import combinations

import pytest

from hyperlie import det_minor_expansion
from hyperlie import reference, suite
from hyperlie.classical import compare_tables, symbol_env, symbol_image
from hyperlie.derivation import Derivation, verify_pushforward
from hyperlie.exactpoly import PolyMatrix
from hyperlie.genus_fields import (
    block_sign,
    build_Tcal,
    build_by_ladder,
    euler_relations,
    parse_coeff,
    pullback_T,
    read_relations,
    solve_genus2_normalization,
    table_relations,
)
from hyperlie.lambda_space import CurveModel, build_T
from hyperlie.param_map import PARAM_NAMES
from hyperlie.suite import PitConfig, SuiteContext, _entry_rng, suite_entries


# -- Euler and depth-1 fields ----------------------------------------------------


def test_euler_coefficients(catalogs):
    cat = catalogs[3]
    assert cat.fields["L0"].on("z8") == cat.ring.parse("8*z8")


def test_euler_on_map_component(catalogs):
    cat = catalogs[1]
    l4 = cat.jm.lambda_exprs[4]
    assert cat.fields["L0"].apply(l4) == 4 * l4


def test_euler_self_bracket(catalogs):
    cat = catalogs[2]
    assert cat.fields["L0"].bracket(cat.fields["L0"]).is_zero()


def test_depth1_guard_examples(catalogs):
    # the out-of-range tail term vanishes at the top of each triple
    assert catalogs[1].fields["L1"].on("x4") == catalogs[1].ring.parse("12*x2*x3")
    assert catalogs[2].fields["L1"].on("y6") == catalogs[2].ring.parse(
        "4*(2*x2*y5 + x3*y4)"
    )
    assert catalogs[3].fields["L1"].on("z8") == catalogs[3].ring.parse(
        "4*(x3*z6 + 2*x2*z7)"
    )


# -- odd fields --------------------------------------------------------------------


def test_odd_field_displayed_values(catalogs):
    cat = catalogs[3]
    assert cat.fields["L3"].on("y4") == cat.ring.parse("x3*y4 - x2*y5 + z7")
    assert cat.fields["L5"].on("z6") == cat.ring.parse("y5*z6 - y4*z7")
    cat2 = catalogs[2]
    assert cat2.fields["L3"].on("y6") == cat2.ring.parse(
        "8*x2*x3*y4 - 8*x2^2*y5 + x4*y5 - x3*y6 + 4*y4*y5"
    )


def test_odd_fields_commute_pairwise(catalogs):
    for g in (2, 3):
        cat = catalogs[g]
        odds = cat.odd_fields()
        for i in range(len(odds)):
            for j in range(i + 1, len(odds)):
                assert odds[i].bracket(odds[j]).is_zero()


def test_build_odd_rejects_out_of_range_index(catalogs):
    from hyperlie.genus_fields import build_odd

    cat = catalogs[2]
    with pytest.raises(ValueError):
        build_odd(2, 5, cat.ring, cat.jm.w_exprs, cat.fields["L1"])


# -- auxiliary polynomials ----------------------------------------------------------


def test_aux_polys_match_displayed_forms(catalogs):
    for g in (2, 3):
        cat = catalogs[g]
        for name, text in reference.AUX[g].items():
            assert cat.aux[name] == parse_coeff(cat, text), (g, name)


def test_parse_coeff_reads_the_catalog_it_is_given(catalogs):
    # a catalog whose auxiliary polynomials differ reads its own values,
    # not a remembered parse of the same text
    cat = catalogs[2]
    bumped = cat._replace(aux={**cat.aux, "w6": cat.aux["w6"] + 1})
    assert parse_coeff(bumped, "w6") == parse_coeff(cat, "w6") + 1


def test_aux_spot_values(catalogs):
    cat = catalogs[3]
    assert cat.aux["p11"] == cat.ring.parse("y5*z6 - y4*z7")
    assert cat.aux["w13"] == cat.ring.parse(
        "-y5*x2*z6 + x2*y4*z7 - 1/2*y6*z7 + 1/2*y5*z8 + z6*z7"
    )
    cat2 = catalogs[2]
    assert cat2.aux["w9"] == cat2.ring.parse(
        "-x2*x3*y4 + x2^2*y5 - 1/2*(x4*y5 - x3*y6) + y4*y5"
    )


# -- even fields ---------------------------------------------------------------------


def test_genus3_even_seed_display(catalogs):
    cat = catalogs[3]
    expected = parse_coeff(
        cat,
        "-8/7*l8*y4 + 4*l6*z6 - 2*x2*y4*z6 + y6*z6 - y5*z7 + 2*z6^2",
    )
    assert cat.fields["L6"].on("z6") == expected


def test_genus1_weight2_row(catalogs):
    cat = catalogs[1]
    d = cat.fields["L2"]
    assert d.on("x2") == cat.ring.parse("2/3*x4 - 2*x2^2")
    assert d.on("x3") == cat.ring.parse("3*x2*x3")
    assert d.on("x4") == cat.ring.parse("2*x2*x4 + 3*x3^2")


def _specialized(cat, values):
    """The member of the genus-2 family at ``values`` (0 for a parameter
    it omits), by substituting each parameter in every field's action."""
    assignment = {p: values.get(p, 0) for p in PARAM_NAMES}
    fields = {n: Derivation(n, cat.ring, {v: q.substitute(assignment, target=cat.ring)
                                          for v, q in d.action.items()}, weight=d.weight)
              for n, d in cat.fields.items()}
    return cat._replace(fields=fields, param_values=tuple(sorted(assignment.items())))


def test_zero_catalog_is_the_symbolic_catalog_at_zero(catalogs, catalogs_zero):
    # the zero catalog is its own build with the parameters read as 0; every
    # field equals the symbolic field with each parameter substituted by 0
    zero, at_zero = catalogs_zero[2], _specialized(catalogs[2], {})
    assert zero is not catalogs[2] and zero.param_values == at_zero.param_values
    assert sorted(zero.fields) == sorted(at_zero.fields)
    for name, d in at_zero.fields.items():
        assert zero.fields[name] == d and zero.fields[name].weight == d.weight, name


def test_genus2_zero_params_unhats(catalogs, catalogs_zero):
    # with all parameters zero the hatted combinations reduce to the bases,
    # the displayed actions, which carry no parameter
    sym = catalogs[2]
    zero = catalogs_zero[2]
    for name in ("L2", "L4", "L6"):
        actions = reference.FIELD_ACTIONS[2][name]
        base = {v: parse_coeff(sym, text) for v, text in actions.items()}
        assert zero.fields[name] == Derivation(name, sym.ring, base), name
    for name, extras in reference.HATTED_G2.items():
        # the parameter terms are there to vanish
        assert (sym.fields[name] == zero.fields[name]) == (not extras), name


def test_genus2_even_ladder_matches_explicit(catalogs_zero):
    cat = catalogs_zero[2]
    for name in ("L2", "L4", "L6"):
        k = int(name[1:])
        seeds = {v: cat.fields[name].on(v) for v in ("x2", "y4")}
        laddered = build_by_ladder(cat, k, seeds)
        assert laddered == cat.fields[name], name


def test_fields_homogeneous(catalogs):
    for cat in catalogs.values():
        for name, d in cat.fields.items():
            assert d.homogeneity_defects() == [], (cat.genus, name)


# -- tables ---------------------------------------------------------------------------


def test_euler_rows_all_genera(catalogs):
    for cat in catalogs.values():
        for rel in euler_relations(cat.fields):
            residual = rel.residual()
            assert residual.is_zero(), (cat.genus, rel.label)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_full_bracket_tables(catalogs, g):
    for rel in table_relations(catalogs[g]):
        residual = rel.residual()
        assert residual.is_zero(), (g, rel.label, residual.action)


def test_specific_genus3_rows(catalogs):
    cat = catalogs[3]
    rows = {r.label: r for r in table_relations(cat)}
    for label in ("[L3,L2]", "[L5,L10]", "[L8,L10]"):
        assert rows[label].residual().is_zero(), label


def test_genus2_parametric_row(catalogs):
    # the displayed bracket with all four parameters symbolic
    cat = catalogs[2]
    rows = {r.label: r for r in table_relations(cat)}
    assert rows["[L3,L2]"].residual().is_zero()


# -- projectability -----------------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2, 3])
def test_projectability_all_fields(catalogs, lam_fields, g):
    cat = catalogs[g]
    for name in cat.names:
        k = int(name[1:])
        down = None if k % 2 else lam_fields[g][k]
        ok, failures = verify_pushforward(cat.fields[name], cat.pmap, down)
        assert ok, (g, name, {v: p.to_text() for v, p in failures.items()})


def test_pushforward_homomorphism_genus3(catalogs, lam_fields):
    """[La, Lb](p_j) = p*([La^l, Lb^l] l_j) on every coordinate of all 36
    genus-3 pairs, 0 when a or b is odd: the bracket identity that
    ``fields.pushforward_homomorphism`` decides on structure functions."""
    cat = catalogs[3]
    pairs = list(combinations(cat.names, 2))
    assert len(pairs) == 36
    for a, b in pairs:
        i, j = int(a[1:]), int(b[1:])
        up = cat.fields[a].bracket(cat.fields[b])
        down = None if i % 2 or j % 2 else lam_fields[3][i].bracket(lam_fields[3][j])
        ok, failures = verify_pushforward(up, cat.pmap, down)
        assert ok, (a, b, failures)


# -- action-matrix determinant ---------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2])
def test_detTcal_factor_small(catalogs_zero, models, g):
    cat = catalogs_zero[g]
    lhs = det_minor_expansion(build_Tcal(cat))
    rhs = det_minor_expansion(pullback_T(cat, build_T(models[g])))
    assert lhs == reference.DET_TCAL_FACTOR[g] * rhs


@pytest.mark.parametrize("g, sign", [(1, -1), (2, -1), (3, 1)])
def test_block_sign(catalogs_zero, g, sign):
    # sigma (odd fields first) times epsilon (K columns last)
    assert block_sign(catalogs_zero[g]) == sign


def _dettcal_entry(g, mode):
    entry_id = f"g{g}.fields.detTcal_factor"
    fn = next(fn for eid, _, fn in suite_entries(g) if eid == entry_id)
    return fn(SuiteContext(g), mode, PitConfig(seed=1), _entry_rng(1, entry_id))


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("g", [1, 2])
def test_detTcal_factor_entry_fails_on_wrong_factor(monkeypatch, g, mode):
    assert _dettcal_entry(g, mode) == (True, None)
    monkeypatch.setitem(
        reference.DET_TCAL_FACTOR, g, 2 * reference.DET_TCAL_FACTOR[g]
    )
    ok, witness = _dettcal_entry(g, mode)
    assert not ok
    if mode == "exact":
        assert witness.startswith("det A - sign * factor * det J_minor")


@pytest.mark.parametrize("mode", ["exact", "pit"])
@pytest.mark.parametrize("g", [1, 2])
def test_detTcal_factor_entry_fails_on_perturbed_odd_row(monkeypatch, g, mode):
    def perturbed(cat):
        rows = [list(r) for r in build_Tcal(cat).rows]
        # the L1 action on the last coordinate, outside K: only the block
        # product sees it in exact mode
        rows[1][-1] = rows[1][-1] + cat.ring.one
        return PolyMatrix(cat.ring, rows)

    monkeypatch.setattr(suite, "build_Tcal", perturbed)
    ok, witness = _dettcal_entry(g, mode)
    assert not ok
    if mode == "exact":
        assert witness.startswith("(Tcal.J_p^T)[L1,l")


def test_pullback_det_equals_det_pullback(catalogs_zero, models, detTs):
    # substitution commutes with the determinant
    for g in (1, 2):
        cat = catalogs_zero[g]
        T = build_T(models[g])
        assert det_minor_expansion(pullback_T(cat, T)) == cat.pmap.pullback(detTs[g])


# -- normalization ----------------------------------------------------------------------


def test_normalization_solution_is_zero(catalogs):
    sol = solve_genus2_normalization(catalogs[2])
    assert sol == {"alpha": 0, "beta": 0, "gamma1": 0, "gamma2": 0}


_NORMALIZATION = reference.G2_NORMALIZATION


@pytest.mark.parametrize("rows, want", [
    (_NORMALIZATION[::-1], {"alpha": 0, "beta": 0, "gamma1": 0, "gamma2": 0}),
    # [L1,L4] = (y4 + alpha*x4)*L1 + x2*L3 on the symbolic catalog
    ([*_NORMALIZATION[:2], ("L1", "L4", {"L1": "y4 + x4", "L3": "x2"}), _NORMALIZATION[3]],
     {"alpha": 1, "beta": 0, "gamma1": 0, "gamma2": 0}),
])
def test_normalization_solves_any_row_order_and_right_side(monkeypatch, catalogs,
                                                            rows, want):
    monkeypatch.setattr(reference, "G2_NORMALIZATION", rows)
    assert solve_genus2_normalization(catalogs[2]) == want


@pytest.mark.parametrize("rows, message", [
    # without the [L1,L6] row nothing pins beta, gamma1 or gamma2
    (_NORMALIZATION[:3], "normalization solution is not unique"),
    # a second [L1,L4] row forcing alpha = 1 against the displayed alpha = 0
    ([*_NORMALIZATION, ("L1", "L4", {"L1": "y4 + x4", "L3": "x2"})],
     "inconsistent normalization conditions"),
    # the symbolic L4 adds alpha*x3*L1, so a coefficient alpha makes alpha^2 terms
    ([*_NORMALIZATION, ("L1", "L4", {"L1": "y4", "L3": "x2", "L4": "alpha"})],
     "normalization residual is nonlinear in the parameters"),
])
def test_normalization_failure_paths(monkeypatch, catalogs, rows, message):
    monkeypatch.setattr(reference, "G2_NORMALIZATION", rows)
    assert solve_genus2_normalization(catalogs[2]) == message


def test_normalized_bracket_row(catalogs_zero):
    # with the solution applied, the weight-(2,4) bracket takes the
    # parameter-free displayed form
    cat = catalogs_zero[2]
    rows = {r.label: r for r in table_relations(cat)}
    assert rows["[L2,L4]"].residual().is_zero()


def test_normalization_negative_control(catalogs):
    # forcing alpha = 1 contradicts the classical table
    forced = _specialized(catalogs[2], {"alpha": 1})
    mism = compare_tables(forced, reference.CLASSICAL_TABLE[2], SuiteContext(2).structure[1])
    assert mism


def test_every_displayed_table_is_read_through_read_relations(monkeypatch):
    from hyperlie import classical, genus_fields

    original, seen = genus_fields.read_relations, []

    def spy(fields, rows, env):
        seen.append((next(iter(fields.values())).ring, rows))
        return original(fields, rows, env)

    for module in (genus_fields, classical, suite):
        monkeypatch.setattr(module, "read_relations", spy)
    assert suite.run_suite(2).passed
    x_ring = genus_fields.catalog(2).ring
    for rows in (reference.BRACKET_TABLE[2], reference.CLASSICAL_TABLE[2],
                 reference.G2_NORMALIZATION):
        assert any(r is rows and ring == x_ring for ring, r in seen)
    # Saito's tangency reads the even part of the same table on parameter space
    evens = {f"L{k}" for k in range(0, 7, 2)}
    even_part = [(a, b, {f: text for f, text in coeffs.items() if f in evens})
                 for a, b, coeffs in reference.BRACKET_TABLE[2] if a in evens and b in evens]
    assert even_part and (CurveModel(2).ring, even_part) in seen


# -- classical translation ----------------------------------------------------------------


def test_symbol_image_base_cases(catalogs):
    cat = catalogs[3]
    assert symbol_image(cat, 2, ()) == cat.ring.var("x2")
    assert symbol_image(cat, 2, (3,)) == cat.ring.var("y5")
    assert symbol_image(cat, 0, (3, 3)) == cat.aux["w6"]
    assert symbol_image(cat, 0, (5, 5, 5)) == cat.aux["w15"]
    assert symbol_image(cat, 1, (3, 3)) == cat.aux["p7"]


def test_symbol_image_missing_symbol(catalogs):
    with pytest.raises(KeyError):
        symbol_image(catalogs[1], 0, (3, 3))  # no such symbol at genus 1


@pytest.mark.parametrize("g", [1, 2, 3])
def test_classical_tables_translate_onto_computed(catalogs, catalogs_zero, g):
    cat = catalogs_zero[2] if g == 2 else catalogs[g]
    assert compare_tables(cat, reference.CLASSICAL_TABLE[g], SuiteContext(g).structure[1]) == {}


def test_classical_row_read_in_symbol_env(catalogs):
    cat = catalogs[3]
    rows = [("L3", "L2", {"L1": "P1_3 - l4", "L5": "-3"})]
    (rel,) = read_relations(cat.fields, rows, symbol_env(cat, rows))
    coeffs = {Z.name: c for c, Z in rel.expansion}
    assert coeffs["L1"] == cat.ring.var("y4") - cat.jm.lambda_exprs[4]
    assert coeffs["L5"] == cat.ring.const(-3)


# -- Jacobi identity -------------------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2])
def test_jacobi_all_triples_small_genus(catalogs, g):
    cat = catalogs[g]
    names = cat.names
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            for c in range(b + 1, len(names)):
                A, B, C = (cat.fields[names[i]] for i in (a, b, c))
                total = (
                    A.bracket(B.bracket(C))
                    + B.bracket(C.bracket(A))
                    + C.bracket(A.bracket(B))
                )
                assert total.is_zero(), (g, names[a], names[b], names[c])
