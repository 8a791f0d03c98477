"""Acceptance criteria: one test per criterion, exact arithmetic throughout.

Every check is structural polynomial equality (tolerance zero).  Each test
prints a PASS line with its wall time and asserts the stated budget.
"""

import time
from fractions import Fraction

from hyperlie import cast, det_minor_expansion
from hyperlie import reference
from hyperlie.classical import compare_tables
from hyperlie.derivation import verify_pushforward
from hyperlie.exactpoly import det_bareiss, divexact
from hyperlie.genus_fields import (
    build_Tcal,
    catalog,
    euler_relations,
    parse_coeff,
    pullback_T,
    solve_genus2_normalization,
    structure,
    table_relations,
)
from hyperlie.lambda_space import (
    CurveModel,
    all_L,
    build_T,
    build_f,
)
from hyperlie.param_map import generate_relations, eliminate, verify_relations_vanish
from hyperlie.suite import PitConfig, run_suite

from oracles import m_relation_rows, resultant, sylvester_matrix


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(criterion, timer, budget):
    print(f"PASS criterion {criterion} ({timer.elapsed:.2f}s, budget {budget}s)")
    assert timer.elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def test_criterion_01_genus1_discriminant():
    with Timer() as t:
        model = CurveModel(1)
        f = build_f(model)
        R = cast(resultant(f, f.partial("X"), "X"), model.ring)
        assert R == model.ring.parse("4*l4^3 + 27*l6^2")
        detT = det_minor_expansion(build_T(model))
        assert detT == R * Fraction(-4, 3)
    _report(1, t, 1)


def test_criterion_02_genus3_determinant_identity():
    with Timer() as t:
        model = CurveModel(3)
        f = build_f(model)
        syl = sylvester_matrix(f, f.partial("X"), "X")
        assert syl.nrows == syl.ncols == 13
        R = cast(det_bareiss(syl), model.ring)  # fraction-free elimination
        detT = det_minor_expansion(build_T(model))
        assert detT == R * Fraction(-64, 7)
    _report(2, t, 120)


def test_criterion_03_tangency_multipliers():
    with Timer() as t:
        for g, expected in ((1, ["12", "0"]),
                            (3, ["84", "0", "40*l4", "24*l6", "12*l8", "4*l10"])):
            model = CurveModel(g)
            T = build_T(model)
            detT = det_minor_expansion(T)
            fields = all_L(T)
            got = [divexact(fields[k].apply(detT), detT) for k in sorted(fields)]
            assert got == [model.ring.parse(e) for e in expected], g
    _report(3, t, 30)


def test_criterion_04_structure_matrix_relation():
    with Timer() as t:
        model = CurveModel(3)
        rows = m_relation_rows(model, all_L(build_T(model)))
        assert len(rows) == 10
        for rel in rows:
            residual = rel.residual()
            assert residual.is_zero(), (rel.label, residual.action)
    _report(4, t, 10)


def test_criterion_05_elimination_reproduces_printed_maps():
    with Timer() as t:
        for g in (1, 2, 3):
            rels = generate_relations(g)
            assert len(rels) == g * (g + 3) // 2
            jm = eliminate(rels)
            for name, text in reference.MAP[g].items():
                assert jm.lambda_exprs[int(name[1:])] == jm.ring.parse(text), (
                    g, name)
            for kl, text in reference.W_EXPRS.get(g, {}).items():
                assert jm.w_exprs[kl] == jm.ring.parse(text), (g, kl)
            assert verify_relations_vanish(jm) == {}
    _report(5, t, 10)


def test_criterion_06_projectability():
    with Timer() as t:
        for g in (1, 2, 3):
            cat = catalog(g)  # genus-2 parameters left symbolic
            fields = all_L(build_T(CurveModel(g)))
            for name in cat.names:
                k = int(name[1:])
                down = None if k % 2 else fields[k]
                ok, failures = verify_pushforward(cat.fields[name], cat.pmap, down)
                assert ok, (g, name, sorted(failures))
    _report(6, t, 60)


def test_criterion_07_action_determinant_factors():
    with Timer() as t:
        for g in (1, 2, 3):
            cat = catalog(g, params="zero")
            lhs = det_minor_expansion(build_Tcal(cat))
            rhs = det_minor_expansion(pullback_T(cat, build_T(CurveModel(g))))
            assert lhs == reference.DET_TCAL_FACTOR[g] * rhs, g
    _report(7, t, 300)


def test_criterion_08_genus3_ladder_reproduces_printed_values():
    with Timer() as t:
        cat = catalog(3)
        failures = []
        for name, grid in reference.EVEN_SEEDS_G3.items():
            for v, text in grid.items():
                if cat.fields[name].on(v) != parse_coeff(cat, text):
                    failures.append(f"{name}({v})")
        for name, grid in reference.FIELD_ACTIONS[3].items():
            for v, text in grid.items():
                if cat.fields[name].on(v) != parse_coeff(cat, text):
                    failures.append(f"{name}({v})")
        for name, text in reference.AUX[3].items():
            if cat.aux[name] != parse_coeff(cat, text):
                failures.append(name)
        assert failures == []
    _report(8, t, 60)


def test_criterion_09_full_commutator_tables():
    with Timer() as t:
        for g in (1, 2, 3):
            cat = catalog(g)  # genus-2 exact in the four parameters
            for rel in table_relations(cat):
                residual = rel.residual()
                assert residual.is_zero(), (g, rel.label, residual.action)
    _report(9, t, 300)


def test_criterion_10_normalization_and_classical_tables():
    with Timer() as t:
        sol = solve_genus2_normalization(catalog(2))
        assert sol == {"alpha": 0, "beta": 0, "gamma1": 0, "gamma2": 0}
        for g in (1, 2, 3):
            symbolic = catalog(g)
            rels = table_relations(symbolic) + euler_relations(symbolic.fields)
            exp = structure(symbolic.fields, rels)[1]
            cat = catalog(g, params="zero") if g == 2 else symbolic
            assert compare_tables(cat, reference.CLASSICAL_TABLE[g], exp) == {}
    _report(10, t, 10)


def test_criterion_11_property_suites():
    with Timer() as t:
        # Jacobi identity over every catalog triple
        for g in (1, 2, 3):
            cat = catalog(g)
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
        # Leibniz and grading on randomized inputs
        import random

        from hyperlie.derivation import Derivation
        from hyperlie.exactpoly import Poly, Ring

        ring = Ring([("a", 1), ("b", 2), ("c", 3)])
        rng = random.Random(42)

        def degree(p):
            return max((sum(m) for m in p.terms), default=0)

        def rand_poly():
            return Poly(ring, {
                tuple(rng.randint(0, 2) for _ in ring.vars):
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            })

        for _ in range(120):
            d = Derivation("D", ring, {v.name: rand_poly() for v in ring.vars})
            p, q = rand_poly(), rand_poly()
            assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)
            assert degree(p * q) <= degree(p) + degree(q)
        # pit mode agrees with exact mode on every suite entry
        for g in (1, 2, 3):
            exact = {e.id: e.status for e in run_suite(g, "exact").entries}
            pit = {
                e.id: e.status
                for e in run_suite(g, "pit", PitConfig(seed=1)).entries
            }
            assert exact == pit, g
    _report(11, t, 120)
