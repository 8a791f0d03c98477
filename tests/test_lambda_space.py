"""Parameter-space constructions: f, R, T, the fields and the structure matrix."""

import hashlib
import random
from fractions import Fraction

import pytest

from hyperlie import Ring, det_minor_expansion
from hyperlie.lambda_space import (
    CurveModel,
    all_L,
    bezout_f,
    bezout_matrix,
    build_M,
    build_T,
    build_f,
    schur_identity,
    t_entry,
)
from hyperlie import reference
from hyperlie.exactpoly import divexact
from hyperlie.suite import fraction_det

from oracles import m_relation_rows, sylvester_matrix


# -- division oracles: no runtime code divides; the tests' second algorithm -----


def detT_R_constant(det_T, R):
    """The constant c with det T = c * R; raises if the quotient is not constant."""
    return divexact(det_T, R).constant_value()


def tangency_multipliers(fields, det_T):
    """Exact multipliers m_k with L_k(det T) = m_k * det T, in field order."""
    return [divexact(L.apply(det_T), det_T) for L in fields.values()]


def test_build_f_genus1(models):
    m = models[1]
    assert build_f(m) == m.fring.parse("X^3 + l4*X + l6")


def test_build_f_genus3(models):
    m = models[3]
    assert build_f(m) == m.fring.parse(
        "X^7 + l4*X^5 + l6*X^4 + l8*X^3 + l10*X^2 + l12*X + l14"
    )


def test_build_f_has_no_subleading_term(models):
    for g, m in models.items():
        coeffs = build_f(m).coeffs_in("X")
        assert 2 * g not in coeffs


def test_discriminant_genus1(discriminants, models):
    assert discriminants[1] == models[1].ring.parse("4*l4^3 + 27*l6^2")


@pytest.mark.parametrize("g", [1, 2, 3])
def test_discriminant_weight(discriminants, g):
    R = discriminants[g]
    assert not R.is_zero()
    assert R.off_weight(reference.r_weight(g)).is_zero()


# sha256 of R.to_text() as the minor sweep gave it while it still kept every
# minor of two row levels, zero minors included; R must not change.
R_TEXT_SHA256 = {
    1: "96866992c5de652e77604ae8f320e7f46116aaebd865130037c04c3649cade70",
    2: "48b70c9bd53650a5b8ddebb1f9718434bad35a68f97e689236b40bef26c819f2",
    3: "9b699881f041f027fc2f776a485097faf4fadd02cc210475bba8889727b262f6",
}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_discriminant_text_is_unchanged(discriminants, g):
    text = discriminants[g].to_text().encode()
    assert hashlib.sha256(text).hexdigest() == R_TEXT_SHA256[g]


# -- R from the Bezout matrix, checked against the Sylvester resultant ----------


def _sylvester_f(model):
    f = build_f(model)
    return sylvester_matrix(f, f.partial("X"), "X")


@pytest.mark.parametrize("g", [1, 2, 3])
def test_bezout_determinant_is_sylvester_resultant(models, g):
    m = models[g]
    want = det_minor_expansion(_sylvester_f(m)).substitute({}, target=m.ring)
    assert det_minor_expansion(bezout_f(build_f(m), m.ring)) == want


def test_bezout_R_genus4_matches_sylvester_at_points():
    m = CurveModel(4)
    B = bezout_f(build_f(m), m.ring)
    assert (B.nrows, B.ncols) == (9, 9)
    R = det_minor_expansion(B)
    syl = _sylvester_f(m)
    assert (syl.nrows, syl.ncols) == (17, 17)
    rng = random.Random(4)
    for _ in range(3):
        point = {v: rng.randint(-50, 50) for v in m.ring.names}
        assert R.evaluate(point) == fraction_det(syl.evaluate(dict(point, X=0)))


def test_bezout_determinant_matches_sympy_resultant():
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hyp.strategies
    ring = Ring([])
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

    @hyp.settings(max_examples=100, deadline=None, database=None)
    @hyp.given(st.integers(1, 7).flatmap(lambda n: st.lists(coeff, min_size=n, max_size=n)))
    def check(low):
        # monic f of degree len(low); low[i] is the coefficient of X^i
        a = [ring.const(c) for c in low] + [ring.one]
        det = det_minor_expansion(bezout_matrix(ring, a)).constant_value()
        x = sympy.Symbol("x")
        f = x ** len(low) + sum(sympy.Rational(c.numerator, c.denominator) * x**i
                                for i, c in enumerate(low))
        want = sympy.resultant(f, sympy.diff(f, x), x)
        assert sympy.Rational(det.numerator, det.denominator) == want

    check()


def test_T_matches_displayed_matrices(models):
    for g, m in models.items():
        T = build_T(m)
        grid = reference.T_MATRIX[g]
        for i, row in enumerate(grid):
            for j, text in enumerate(row):
                assert T.entry(i, j) == m.ring.parse(text), (g, i, j)


def test_T_symmetric_and_weighted(models):
    for g, m in models.items():
        T = build_T(m)
        n = 2 * g
        assert all(T.entry(i, j) == T.entry(j, i) for i in range(n) for j in range(n))
        for k in range(1, 2 * g + 1):
            for mm in range(1, 2 * g + 1):
                assert T.entry(k - 1, mm - 1).off_weight(2 * k + 2 * mm).is_zero()


def test_t_entry_symmetry_in_indices(models):
    m = models[3]
    for k in range(1, 7):
        for mm in range(1, 7):
            assert t_entry(m, k, mm) == t_entry(m, mm, k)


def test_all_L_genus1(models):
    m = models[1]
    L0, L2 = all_L(build_T(m)).values()
    assert L0.on("l4") == m.ring.parse("4*l4")
    assert L0.on("l6") == m.ring.parse("6*l6")
    assert L2.on("l4") == m.ring.parse("6*l6")
    assert L2.on("l6") == m.ring.parse("-4/3*l4^2")


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_all_L_acts_by_T_entries(g):
    # L_k(l_{2s}) = T_{k+2,2s-2}, entry by entry against t_entry
    model = CurveModel(g)
    fields = all_L(build_T(model))
    assert list(fields) == [f"L{k}" for k in range(0, 4 * g - 1, 2)]
    for name, L in fields.items():
        k = int(name[1:])
        assert (L.name, L.weight, L.ring) == (name, k, model.ring)
        for s in range(2, 2 * g + 2):
            assert L.on(f"l{2 * s}") == t_entry(model, (k + 2) // 2, s - 1), (g, k, s)


def test_euler_field_eigenvalues(models, lam_fields):
    for g, m in models.items():
        L0 = lam_fields[g]["L0"]
        for s in m.indices:
            assert L0.apply(m.lam(s)) == s * m.lam(s)


def test_euler_brackets(lam_fields):
    for g, fields in lam_fields.items():
        L0 = fields["L0"]
        for L in fields.values():
            assert L0.bracket(L) == L.scale(L.weight)


def test_detT_is_constant_multiple_of_R(models, lam_fields, discriminants, detTs):
    for g in (1, 2, 3):
        c = detT_R_constant(detTs[g], discriminants[g])
        assert c == reference.DETT_R_CONSTANT[g]
        # same weight, weight-0 quotient
        w = reference.r_weight(g)
        assert detTs[g].off_weight(w).is_zero() and discriminants[g].off_weight(w).is_zero()


def test_tangency_multipliers(models, lam_fields, detTs):
    for g in (1, 2, 3):
        expected = [models[g].ring.parse(t)
                    for t in reference.TANGENCY_MULTIPLIERS[g]]
        got = tangency_multipliers(lam_fields[g], detTs[g])
        assert got == expected


def test_saito_multipliers_equal_the_division_oracle(models, lam_fields, detTs):
    # div L_k + tr c_k from the parameter-space relations, as params.tangency
    # reads them, against L_k(det T) / det T by exact division
    from hyperlie.suite import SuiteContext, _saito_multipliers

    for g in (1, 2, 3):
        derived = _saito_multipliers(SuiteContext(g))
        assert derived == tangency_multipliers(lam_fields[g], detTs[g])


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_T_is_a_scaled_schur_complement_of_the_bezout_matrix(g):
    # n*T = -2*J*S*J entry by entry gives det T = (-4)^g/(2g+1) * R with no
    # determinant expanded; checked against numeric det T and det B at points
    m = CurveModel(g)
    T, B = build_T(m), bezout_f(build_f(m), m.ring)
    residuals, c = schur_identity(T, B)
    assert len(residuals) == 4 * g * g
    assert all(r.is_zero() for r in residuals.values())
    assert c == Fraction((-4) ** g, 2 * g + 1)
    if g <= 3:
        assert c == reference.DETT_R_CONSTANT[g]
    rng = random.Random(g)
    for _ in range(3):
        point = {v: rng.randint(-50, 50) for v in m.ring.names}
        det_B = fraction_det(B.evaluate(point))
        assert det_B != 0
        assert fraction_det(T.evaluate(point)) == c * det_B


def test_cross_action_symmetry(models, lam_fields):
    # pairwise actions agree across indices, the derivation-level face of
    # the T-matrix symmetry
    for g, fields in lam_fields.items():
        m = models[g]
        for A in fields.values():
            for B in fields.values():
                sa, sb = A.weight + 4, B.weight + 4
                if sa in m.indices and sb in m.indices:
                    assert A.apply(m.lam(sb)) == B.apply(m.lam(sa))


# -- genus-3 structure matrix ----------------------------------------------------


def test_build_M_requires_genus3(models):
    with pytest.raises(ValueError):
        build_M(models[2])


def test_M_entry_spot_values(models):
    m = models[3]
    M = build_M(m)
    # row [L2,L4], column L6
    assert M.entry(0, 3) == m.ring.const(2)
    # row [L8,L10], column L0
    assert M.entry(9, 0).is_zero()
    # row [L2,L10], column L8
    assert M.entry(3, 4) == m.ring.parse("-4/7*l4")


def test_M_relation_rows_hold(models, lam_fields):
    rows = m_relation_rows(models[3], lam_fields[3])
    assert len(rows) == 10
    for rel in rows:
        residual = rel.residual()
        assert residual.is_zero(), (rel.label, residual.action)


def test_M_relation_corrupted_entry_fails(models, lam_fields):
    m = models[3]
    rows = m_relation_rows(m, lam_fields[3])
    rel = rows[0]
    rel.expansion[0] = (rel.expansion[0][0] + 1, rel.expansion[0][1])
    assert not rel.residual().is_zero()
