"""Derivations: Leibniz rule, brackets, pushforward checks, ladder completion."""

import random
from fractions import Fraction

import pytest

from hyperlie import Derivation, Poly, PolyMap, Ring, RingMismatchError, ladder_complete
from hyperlie.derivation import (
    BracketRelation,
    LadderError,
    bracket_sum,
    combination,
    linear_sum,
    verify_pushforward,
)


@pytest.fixture
def g1ring():
    return Ring([("x2", 2), ("x3", 3), ("x4", 4)])


@pytest.fixture
def g1fields(g1ring):
    r = g1ring
    L0 = Derivation("L0", r, {"x2": r.parse("2*x2"), "x3": r.parse("3*x3"),
                              "x4": r.parse("4*x4")}, weight=0)
    L1 = Derivation("L1", r, {"x2": r.var("x3"), "x3": r.var("x4"),
                              "x4": r.parse("12*x2*x3")}, weight=1)
    L2 = Derivation("L2", r, {"x2": r.parse("2/3*x4 - 2*x2^2"),
                              "x3": r.parse("3*x2*x3"),
                              "x4": r.parse("2*x2*x4 + 3*x3^2")}, weight=2)
    return {"L0": L0, "L1": L1, "L2": L2}


def random_poly(ring, rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 2) for _ in ring.vars)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(ring, terms)


def random_derivation(ring, rng, name="D"):
    action = {v.name: random_poly(ring, rng) for v in ring.vars}
    return Derivation(name, ring, action)


# -- application ----------------------------------------------------------------


def test_euler_multiplies_by_weight(g1ring, g1fields):
    p = g1ring.parse("2*x2^3 + 1/4*x3^2 - 1/2*x2*x4")  # homogeneous, weight 6
    assert g1fields["L0"].apply(p) == 6 * p


def test_depth1_on_first_coordinate(g1fields, g1ring):
    assert g1fields["L1"].on("x2") == g1ring.var("x3")


def test_derivation_kills_constants(g1ring, g1fields):
    assert g1fields["L2"].apply(g1ring.one).is_zero()


def test_leibniz_randomized():
    ring = Ring([("a", 1), ("b", 2), ("c", 3)])
    rng = random.Random(2)
    for _ in range(100):
        d = random_derivation(ring, rng)
        p, q = random_poly(ring, rng), random_poly(ring, rng)
        assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)


def test_weight_additivity(catalogs):
    cat = catalogs[3]
    p = cat.ring.parse("x2*z6")  # weight 8
    for name in ("L1", "L2", "L5"):
        d = cat.fields[name]
        out = d.apply(p)
        assert out.is_homogeneous_of(8 + d.weight)


# -- brackets -------------------------------------------------------------------


def test_bracket_self_is_zero(g1fields):
    assert g1fields["L2"].bracket(g1fields["L2"]).is_zero()


def test_bracket_antisymmetry():
    ring = Ring([("a", 1), ("b", 2)])
    rng = random.Random(7)
    for _ in range(30):
        A, B = random_derivation(ring, rng), random_derivation(ring, rng)
        assert A.bracket(B) == B.bracket(A).scale(-1)


def test_genus1_bracket_is_coordinate_multiple(g1fields, g1ring):
    got = g1fields["L1"].bracket(g1fields["L2"])
    assert got == g1fields["L1"].scale(g1ring.var("x2"))


def test_genus3_odd_fields_commute(catalogs):
    cat = catalogs[3]
    assert cat.fields["L3"].bracket(cat.fields["L5"]).is_zero()


def test_jacobi_randomized():
    ring = Ring([("a", 1), ("b", 2)])
    rng = random.Random(13)
    for _ in range(15):
        A, B, C = (random_derivation(ring, rng) for _ in range(3))
        total = (
            A.bracket(B.bracket(C))
            + B.bracket(C.bracket(A))
            + C.bracket(A.bracket(B))
        )
        assert total.is_zero()


# -- bracket relations ------------------------------------------------------------


def test_bracket_relation_genus3_depth1(catalogs):
    cat = catalogs[3]
    rel = BracketRelation(
        cat.fields["L1"],
        cat.fields["L2"],
        [(cat.ring.var("x2"), cat.fields["L1"]),
         (cat.ring.const(-1), cat.fields["L3"])],
    )
    residual = rel.residual()
    assert residual.is_zero()


def test_bracket_relation_genus2_row(catalogs):
    cat = catalogs[2]
    from hyperlie.genus_fields import parse_coeff

    rel = BracketRelation(
        cat.fields["L3"],
        cat.fields["L2"],
        [(parse_coeff(cat, "y4 + 4/5*l4"), cat.fields["L1"])],
    )
    assert rel.residual().is_zero()


def test_bracket_relation_corrupted_fails(catalogs):
    cat = catalogs[3]
    rel = BracketRelation(
        cat.fields["L1"],
        cat.fields["L2"],
        [(cat.ring.parse("x2 + 1"), cat.fields["L1"]),  # corrupted coefficient
         (cat.ring.const(-1), cat.fields["L3"])],
    )
    residual = rel.residual()
    assert not residual.is_zero()
    assert any(not p.is_zero() for p in residual.action.values())


# -- pushforward -----------------------------------------------------------------


def test_pushforward_genus1_weight2_pair(g1fields, g1ring):
    lring = Ring([("l4", 4), ("l6", 6)])
    pmap = PolyMap("p", g1ring, lring, {
        "l4": g1ring.parse("-3*x2^2 + 1/2*x4"),
        "l6": g1ring.parse("2*x2^3 + 1/4*x3^2 - 1/2*x2*x4"),
    })
    L2_down = Derivation("L2", lring, {
        "l4": lring.parse("6*l6"), "l6": lring.parse("-4/3*l4^2")
    }, weight=2)
    ok, failures = verify_pushforward(g1fields["L2"], pmap, L2_down)
    assert ok, failures
    # both sides on the weight-4 component equal 6 * (weight-6 component)
    expected = g1ring.parse("12*x2^3 + 3/2*x3^2 - 3*x2*x4")
    assert g1fields["L2"].apply(pmap.components["l4"]) == expected
    assert pmap.pullback(L2_down.on("l4")) == expected


def test_pushforward_failures_are_the_polynomial_differences(g1fields, g1ring):
    """The check decides on integer forms; a failing component's witness is
    still the Poly difference of the two sides, and only failing ones show."""
    lring = Ring([("l4", 4), ("l6", 6)])
    pmap = PolyMap("p", g1ring, lring, {
        "l4": g1ring.parse("-3*x2^2 + 1/2*x4"),
        "l6": g1ring.parse("2*x2^3 + 1/4*x3^2 - 1/2*x2*x4"),
    })
    wrong = Derivation("L2", lring, {  # displayed l6 image: -4/3*l4^2
        "l4": lring.parse("6*l6"), "l6": lring.parse("-5/3*l4^2")
    }, weight=2)
    up = g1fields["L2"]
    ok, failures = verify_pushforward(up, pmap, wrong)
    assert not ok
    assert failures == {
        "l6": up.apply(pmap.components["l6"]) - pmap.pullback(wrong.on("l6"))
    }
    ok, failures = verify_pushforward(up, pmap, None)
    assert not ok
    assert failures == {v: up.apply(c) for v, c in pmap.components.items()}


def test_pushforward_all_genus3_pairs(catalogs, lam_fields):
    cat = catalogs[3]
    for k in (0, 2, 4, 6, 8, 10):
        ok, failures = verify_pushforward(
            cat.fields[f"L{k}"], cat.pmap, lam_fields[3][k]
        )
        assert ok, (k, failures)


def test_odd_fields_annihilate_map(catalogs):
    cat = catalogs[3]
    for name in ("L1", "L3", "L5"):
        ok, failures = verify_pushforward(cat.fields[name], cat.pmap, None)
        assert ok, (name, failures)


# -- ladder completion -------------------------------------------------------------


def test_ladder_zero_seeds_zero_rhs(g1fields, g1ring):
    zero = Derivation("zero", g1ring, {})
    d = ladder_complete(
        "D", {"x2": g1ring.zero}, g1fields["L1"], zero,
        [("x2", "x3"), ("x3", "x4")],
    )
    assert d.is_zero()


def test_ladder_genus2_reproduces_displayed_value(catalogs_zero):
    cat = catalogs_zero[2]
    rhs = combination(
        [(cat.ring.var("x2"), cat.fields["L1"]),
         (cat.ring.const(-1), cat.fields["L3"])],
        cat.ring,
    )
    seeds = {
        "x2": cat.fields["L2"].on("x2"),
        "y4": cat.fields["L2"].on("y4"),
    }
    steps = [("x2", "x3"), ("x3", "x4"), ("y4", "y5"), ("y5", "y6")]
    d = ladder_complete("L2", seeds, cat.fields["L1"], rhs, steps, weight=2)
    assert d.on("x3") == cat.ring.parse("3*x2*x3 + 5*y5")
    assert d == cat.fields["L2"]


def test_ladder_restricted_to_seeds(catalogs):
    cat = catalogs[3]
    for name in ("L2", "L4", "L6", "L8", "L10"):
        d = cat.fields[name]
        for v in ("x2", "y4", "z6"):
            assert d.on(v) == d.action[v]  # seeds present verbatim


def test_ladder_inconsistent_seeds_leave_a_residual(g1fields, g1ring):
    """The walk only constructs: seeds inconsistent with the commutator give
    a field whose relation residual is nonzero."""
    zero = Derivation("zero", g1ring, {})
    d = ladder_complete(
        "bad", {"x2": g1ring.parse("x2^2")}, g1fields["L1"], zero,
        [("x2", "x3"), ("x3", "x4")],
    )
    assert not BracketRelation(g1fields["L1"], d, [(1, zero)]).residual().is_zero()


def test_ladder_unknown_step_raises(g1fields, g1ring):
    zero = Derivation("zero", g1ring, {})
    with pytest.raises(LadderError):
        ladder_complete(
            "bad", {"x2": g1ring.zero}, g1fields["L1"], zero,
            [("x3", "x4")],  # x3 has no seed
        )


# -- differential tests of the fused Leibniz kernel ----------------------------------
# ``apply`` and ``bracket`` accumulate integers over common denominators.  The
# reference below is the textbook sum of image * partial derivative in Poly
# arithmetic; sympy is the independent oracle.  Hypothesis and sympy are
# test-time only, so those tests skip where they are not installed.  The ring
# has a zero-weight variable between two graded ones.

ORACLE_RING = Ring([("a", 1), ("c", 0), ("b", 2)])


def _reference_apply(d, p):
    out = p.ring.zero
    for v, img in d.action.items():
        out = out + img * p.partial(v)
    return out


def _normalised(p):
    """Coefficients as Poly stores them: int when integral, no zero terms."""
    return all(
        c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
        for c in p.terms.values()
    )


def _oracle_tools():
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hyp.strategies
    coeff = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    mono = st.tuples(*[st.integers(0, 3)] * len(ORACLE_RING.vars))
    polys = st.dictionaries(mono, coeff, max_size=5).map(
        lambda t: Poly(ORACLE_RING, t)
    )
    fields = st.dictionaries(st.sampled_from(ORACLE_RING.names), polys).map(
        lambda a: Derivation("D", ORACLE_RING, a)
    )
    settings = hyp.settings(max_examples=150, deadline=None, database=None)
    gens = sympy.symbols(ORACLE_RING.names)

    def to_sympy(p):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(g**e for g, e in zip(gens, m)))
            for m, c in p.terms.items()
        ))

    def sympy_apply(d, expr):
        return sum(
            (to_sympy(img) * sympy.diff(expr, sympy.Symbol(v))
             for v, img in d.action.items()),
            sympy.Integer(0),
        )

    return hyp, sympy, polys, fields, settings, to_sympy, sympy_apply


def test_apply_matches_reference_and_sympy():
    hyp, sympy, polys, fields, settings, to_sympy, sympy_apply = _oracle_tools()

    @settings
    @hyp.given(fields, polys)
    def check(d, p):
        got = d.apply(p)
        assert got.terms == _reference_apply(d, p).terms
        assert _normalised(got)
        assert sympy.expand(to_sympy(got) - sympy_apply(d, to_sympy(p))) == 0

    check()


def test_bracket_matches_reference_and_sympy():
    hyp, sympy, polys, fields, settings, to_sympy, sympy_apply = _oracle_tools()

    @settings
    @hyp.given(fields, fields)
    def check(d, e):
        got = d.bracket(e)
        for v in ORACLE_RING.names:
            ref = _reference_apply(d, e.on(v)) - _reference_apply(e, d.on(v))
            assert got.on(v).terms == ref.terms
            assert _normalised(got.on(v))
            want = sympy_apply(d, to_sympy(e.on(v))) - sympy_apply(e, to_sympy(d.on(v)))
            assert sympy.expand(to_sympy(got.on(v)) - want) == 0
        assert set(got.action) <= set(d.action) | set(e.action)

    check()


def test_apply_with_distinct_denominators():
    r = ORACLE_RING
    d = Derivation("D", r, {"a": r.parse("1/3*b"), "b": r.parse("2/5*a*c"),
                            "c": r.parse("1/7")})
    p = r.parse("1/2*a^2*b + 3/4*c^2")
    assert d.apply(p) == _reference_apply(d, p)
    assert d.apply(p) == r.parse("1/3*a*b^2 + 1/5*a^3*c + 3/14*c")


def test_apply_and_bracket_cancel_to_zero():
    r = ORACLE_RING
    rot = Derivation("R", r, {"a": r.parse("1/3*b"), "b": r.parse("-1/3*a")})
    out = rot.apply(r.parse("a^2 + b^2"))  # 2a*b/3 - 2b*a/3
    assert out.is_zero() and out.terms == {}
    assert rot.bracket(rot).is_zero()
    scaled = rot.scale(Fraction(5, 2))
    assert rot.bracket(scaled).is_zero()


def test_zero_weight_variable_is_differentiated():
    r = ORACLE_RING
    d = Derivation("D", r, {"c": r.parse("a")})  # raises weight by 1
    assert d.apply(r.parse("c^3*b")) == r.parse("3*a*b*c^2")
    e = Derivation("E", r, {"a": r.parse("c^2")})
    assert d.bracket(e) == Derivation("[D,E]", r, {"a": r.parse("2*a*c"),
                                                   "c": r.parse("-c^2")})


def test_integral_results_come_back_as_int():
    r = ORACLE_RING
    d = Derivation("D", r, {"a": r.parse("1/2*a"), "b": r.parse("3/4*b")})
    out = d.apply(r.parse("2*a + 4/3*b"))  # a + b
    assert out.terms == {(1, 0, 0): 1, (0, 0, 1): 1}
    assert all(type(c) is int for c in out.terms.values())
    e = Derivation("E", r, {"b": r.parse("2/3*a^2")})
    br = d.bracket(e)  # [D,E](b) = D(2/3 a^2) - E(3/4 b) = 2/3 a^2 - 1/2 a^2
    assert br.on("b").terms == {(2, 0, 0): Fraction(1, 6)}
    assert all(type(c) is int for c in d.bracket(e.scale(6)).on("b").terms.values())


@pytest.mark.parametrize("value", [0.1, 0.5, "1/2"])
def test_only_ints_and_fractions_become_coefficients(g1ring, g1fields, value):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    x2 = g1ring.var("x2")
    for build in (
        lambda: g1ring.const(value),
        lambda: Poly(g1ring, {(0, 0, 0): value}),
        lambda: Derivation("D", g1ring, {"x2": value}),
        lambda: bracket_sum((), linear=[(value, g1fields["L1"])], ring=g1ring),
        lambda: x2.substitute({"x2": value}),
        lambda: x2 + value,
        lambda: x2 - value,
        lambda: x2 * value,
    ):
        with pytest.raises(TypeError):
            build()
    assert g1ring.const(Fraction(1, 2)) == g1ring.parse("1/2")
    assert x2.substitute({"x2": Fraction(1, 2)}) == Fraction(1, 2)


def test_apply_and_bracket_reject_other_rings(g1ring, g1fields):
    other = Ring([("x2", 2), ("x3", 3)])
    with pytest.raises(RingMismatchError):
        g1fields["L1"].apply(other.var("x2"))
    with pytest.raises(RingMismatchError):
        g1fields["L1"].bracket(Derivation("D", other, {"x2": other.var("x3")}))


def test_apply_and_bracket_high_exponents_do_not_carry():
    # x^79999 needs 17 bits for x's exponent; a fixed 16-bit field would carry
    ring = Ring([("x", 1), ("y", 1)])
    D = Derivation("D", ring, {"x": ring.parse("x^40000")})
    E = Derivation("E", ring, {"x": ring.parse("y^40000"), "y": ring.parse("x^40000")})
    assert D.apply(ring.parse("x^40000*y^40000")) == ring.parse("40000*x^79999*y^40000")
    assert D.bracket(E) == Derivation("[D,E]", ring, {
        "x": ring.parse("-40000*x^39999*y^40000"),
        "y": ring.parse("40000*x^79999"),
    })
    # y's field is sized for 0 + 40000 by the first call, then must hold
    # 25536 + 40000 = 2^16: the memoised narrower layout must not serve
    F = Derivation("F", ring, {"x": ring.parse("y^40000")})
    assert F.apply(ring.var("x")) == ring.parse("y^40000")
    assert F.apply(ring.parse("x*y^25536")) == ring.parse("y^65536")


def test_apply_and_bracket_sum_raise_when_an_exponent_reaches_2_31():
    # x's field holds exponents below 2^31; one more would alias into y's
    ring = Ring([("x", 1), ("y", 1)])
    half = Poly(ring, {(2**30, 0): 1})
    X = Derivation("X", ring, {"x": half})
    Y = Derivation("Y", ring, {"x": half * ring.var("x")})
    with pytest.raises(OverflowError):
        X.apply(half * ring.var("x"))
    with pytest.raises(OverflowError):
        X.bracket(Y)  # [X, Y](x) = x^(2^31)
    with pytest.raises(OverflowError):
        bracket_sum((), linear=[(half, X)])
    with pytest.raises(OverflowError):
        linear_sum(ring, [(X, half * ring.var("x"))])
    with pytest.raises(OverflowError):
        linear_sum(ring, products=[(half, half * ring.var("x"))])  # x^(2^31 + 1)
    assert X.apply(half) == Poly(ring, {(2**31 - 1, 0): 2**30})


# -- linear sums of images and products ---------------------------------------------


def _by_poly_arithmetic(ring, applied, products):
    """sum L(p) + sum f * g by ``apply``, ``*`` and ``+``."""
    out = ring.zero
    for L, p in applied:
        out = out + L.apply(p)
    for f, g in products:
        out = out + f * g
    return out


def test_linear_sum_matches_apply_mul_and_add():
    hyp, _, polys, fields, settings, _, _ = _oracle_tools()
    st = hyp.strategies

    @settings
    @hyp.given(st.lists(st.tuples(fields, polys), max_size=3),
               st.lists(st.tuples(polys, polys), max_size=3))
    def check(applied, products):
        got = linear_sum(ORACLE_RING, applied, products)
        assert got.terms == _by_poly_arithmetic(ORACLE_RING, applied, products).terms
        assert _normalised(got)

    check()


def test_linear_sum_over_mixed_denominators_zeros_and_empty_sums(models, lam_fields):
    r = ORACLE_RING
    D = Derivation("D", r, {"a": r.parse("1/3*b"), "b": r.parse("2/5*a*c"),
                            "c": r.parse("1/7")})
    E = Derivation("E", r, {"c": r.parse("3/4*a")})
    p, q = r.parse("1/2*a^2*b + 3/4*c^2"), r.parse("5/6*b - 1/9*c")
    for applied, products in (
        ([(D, p), (E, q)], [(p, q), (q, r.parse("2/7*a"))]),
        ([(D, r.zero), (E, r.one)], [(r.zero, p), (q, r.zero), (p, r.one)]),
        ([(D, p)], []),
        ([], [(p, q)]),
    ):
        got = linear_sum(r, applied, products)
        assert got == _by_poly_arithmetic(r, applied, products)
        assert _normalised(got)
    assert linear_sum(r, [(D, p)]) == r.parse("1/3*a*b^2 + 1/5*a^3*c + 3/14*c")
    assert linear_sum(r, [(D, p)], [(-D.apply(p), r.one)]).terms == {}
    for empty in (linear_sum(r), linear_sum(r, [(D, r.zero)], [(r.zero, q)])):
        assert empty == r.zero and empty.terms == {}
    # the genus-2 parameter ring: every field on every l_s, and products of
    # the l_s with fractional coefficients
    model, fields = models[2], lam_fields[2]
    lam = model.lam
    applied = [(L, Fraction(1, s) * lam(s) * lam(4)) for L in fields.values()
               for s in model.indices]
    products = [(Fraction(s, 7) * lam(s), lam(t) - Fraction(1, 3))
                for s in model.indices for t in model.indices]
    got = linear_sum(model.ring, applied, products)
    assert got.den != 1
    assert got == _by_poly_arithmetic(model.ring, applied, products)


def test_linear_sum_rejects_other_rings(g1ring, g1fields):
    other = Ring([("x2", 2), ("x3", 3)])
    x2, y2 = g1ring.var("x2"), other.var("x2")
    L1, D = g1fields["L1"], Derivation("D", other, {"x2": other.var("x3")})
    for applied, products in (([(L1, y2)], []), ([(D, x2)], []), ([], [(x2, y2)]),
                              ([], [(y2, x2)]), ([(L1, x2)], [(x2, x2), (y2, y2)])):
        with pytest.raises(RingMismatchError):
            linear_sum(g1ring, applied, products)
    with pytest.raises(RingMismatchError):
        linear_sum(other, [(L1, x2)])


# -- sums of brackets -------------------------------------------------------------


def _reference_bracket_sum(terms):
    """sum s * [X, Y] in Poly arithmetic, one component per ring variable."""
    ring = terms[0][1].ring
    out = {v: ring.zero for v in ring.names}
    for s, X, Y in terms:
        for v in ring.names:
            out[v] = out[v] + s * (_reference_apply(X, Y.on(v)) - _reference_apply(Y, X.on(v)))
    return out


def test_bracket_sum_matches_reference():
    hyp, _, _, fields, settings, _, _ = _oracle_tools()
    st = hyp.strategies
    terms = st.lists(st.tuples(st.integers(-3, 3), fields, fields), min_size=1, max_size=3)

    @settings
    @hyp.given(terms)
    def check(terms):
        got = bracket_sum(terms)
        ref = _reference_bracket_sum(terms)
        for v in ORACLE_RING.names:
            assert got.on(v).terms == ref[v].terms
            assert _normalised(got.on(v))
        assert set(got.action) == {v for v, p in ref.items() if not p.is_zero()}

    check()


def test_bracket_sum_with_distinct_denominators():
    r = ORACLE_RING
    X = Derivation("X", r, {"a": r.parse("1/3*b"), "c": r.parse("1/7")})
    Y = Derivation("Y", r, {"b": r.parse("2/5*a*c"), "a": r.parse("1/2*c^2")})
    Z = Derivation("Z", r, {"c": r.parse("3/4*a"), "b": r.parse("a^2")})
    terms = [(2, X, Y), (-1, Y, Z), (3, Z, X)]
    got = bracket_sum(terms)
    assert got == X.bracket(Y).scale(2) - Y.bracket(Z) + Z.bracket(X).scale(3)
    ref = _reference_bracket_sum(terms)
    assert {v: p.terms for v, p in got.action.items()} == {
        v: p.terms for v, p in ref.items() if p.terms
    }


def test_bracket_sum_cancels_to_zero():
    r = ORACLE_RING
    rng = random.Random(5)
    A, B, C = (random_derivation(r, rng, name) for name in "ABC")
    assert bracket_sum([(1, A, B), (1, B, A)]).action == {}
    # Jacobi: [A,[B,C]] - [B,[A,C]] + [C,[A,B]] = 0 for any derivations
    total = bracket_sum([(1, A, B.bracket(C)), (-1, B, A.bracket(C)), (1, C, A.bracket(B))])
    assert total.action == {}
    assert bracket_sum([(0, A, B)]).action == {}


def test_bracket_sum_differentiates_zero_weight_variable():
    r = ORACLE_RING
    d = Derivation("D", r, {"c": r.parse("a")})
    e = Derivation("E", r, {"a": r.parse("c^2")})
    f = Derivation("F", r, {"c": r.parse("1/2*c*b")})
    got = bracket_sum([(1, d, e), (-2, e, f)])
    assert got == d.bracket(e) - e.bracket(f).scale(2)
    assert got.on("a") == r.parse("2*a*c + 2*b*c^2")  # [D,E](a) = 2ac, [E,F](a) = -bc^2


def test_bracket_sum_rejects_other_rings(g1fields):
    other = Ring([("x2", 2), ("x3", 3)])
    D = Derivation("D", other, {"x2": other.var("x3")})
    with pytest.raises(RingMismatchError):
        bracket_sum([(1, g1fields["L1"], g1fields["L2"]), (1, D, D)])


def test_negation_uses_no_product(monkeypatch, g1fields):
    L1, L2 = g1fields["L1"], g1fields["L2"]
    want_neg, want_sub = L2.scale(-1), L1 + L2.scale(-1)

    def no_product(*args):
        raise AssertionError("negation multiplied")

    monkeypatch.setattr(Poly, "__mul__", no_product)
    monkeypatch.setattr(Poly, "__rmul__", no_product)
    neg = -L2
    assert neg == want_neg and neg.name == want_neg.name
    assert L1 - L2 == want_sub
    assert (L2 - L2).is_zero()


# -- relation residuals -------------------------------------------------------------


def _reference_residual(X, Y, expansion):
    """[X, Y] - sum c * Z in Poly arithmetic, one component per ring variable."""
    ring = X.ring
    out = {}
    for v in ring.names:
        q = _reference_apply(X, Y.on(v)) - _reference_apply(Y, X.on(v))
        for c, Z in expansion:
            q = q - Z.on(v) * c
        out[v] = q
    return out


def test_residual_matches_poly_arithmetic_and_sympy():
    hyp, sympy, polys, fields, settings, to_sympy, sympy_apply = _oracle_tools()
    st = hyp.strategies
    coeffs = st.one_of(polys, st.fractions(max_denominator=5).map(Fraction))
    expansions = st.lists(st.tuples(coeffs, fields), max_size=3)

    @settings
    @hyp.given(fields, fields, expansions)
    def check(X, Y, expansion):
        got = BracketRelation(X, Y, expansion).residual()
        ref = _reference_residual(X, Y, expansion)
        for v in ORACLE_RING.names:
            assert got.on(v).terms == ref[v].terms
            assert _normalised(got.on(v))
            want = sympy_apply(X, to_sympy(Y.on(v))) - sympy_apply(Y, to_sympy(X.on(v)))
            for c, Z in expansion:
                c = to_sympy(c) if isinstance(c, Poly) else sympy.Rational(c.numerator, c.denominator)
                want -= c * to_sympy(Z.on(v))
            assert sympy.expand(to_sympy(got.on(v)) - want) == 0
        assert set(got.action) == {v for v, p in ref.items() if not p.is_zero()}

    check()


def test_combination_is_the_linear_only_case():
    hyp, _, polys, fields, settings, _, _ = _oracle_tools()
    st = hyp.strategies

    @settings
    @hyp.given(st.lists(st.tuples(polys, fields), max_size=3))
    def check(terms):
        got = combination(terms, ORACLE_RING)
        for v in ORACLE_RING.names:
            want = ORACLE_RING.zero
            for c, Z in terms:
                want = want + c * Z.on(v)
            assert got.on(v).terms == want.terms
            assert _normalised(got.on(v))

    check()
    assert combination([], ORACLE_RING).is_zero()


def test_residual_with_empty_expansion_is_the_bracket(g1fields):
    L1, L2 = g1fields["L1"], g1fields["L2"]
    assert BracketRelation(L1, L2, []).residual() == L1.bracket(L2)
    # [L1, L2] = x2 * L1 in genus 1, with numeric and polynomial coefficients
    ring = L1.ring
    assert BracketRelation(L1, L2, [(ring.var("x2"), L1)]).residual().is_zero()
    half = [(Fraction(1, 2) * ring.var("x2"), L1), (Fraction(1, 2), L1.scale(ring.var("x2")))]
    assert BracketRelation(L1, L2, half).residual().is_zero()


def test_residual_rejects_coefficients_from_other_rings(g1fields):
    other = Ring([("x2", 2), ("x3", 3)])
    with pytest.raises(RingMismatchError):
        BracketRelation(g1fields["L1"], g1fields["L2"],
                        [(other.var("x2"), g1fields["L1"])]).residual()


def test_residual_high_exponents_do_not_carry():
    # c * Z needs 17 bits for x: 40000 + 39999, beyond any 16-bit field
    ring = Ring([("x", 1), ("y", 1)])
    X = Derivation("X", ring, {"y": ring.parse("x^40000")})
    Y = Derivation("Y", ring, {"x": ring.var("y")})
    Z = Derivation("Z", ring, {"x": ring.parse("x^39999")})
    # [X, Y](x) = X(y) = x^40000 and [X, Y](y) = -Y(x^40000) = -40000*x^39999*y
    rel = BracketRelation(X, Y, [(ring.var("x"), Z), (ring.parse("-40000*x^39999*y"),
                                                        Derivation("E", ring, {"y": ring.one}))])
    assert rel.residual().is_zero()
    off = BracketRelation(X, Y, [(ring.parse("x^40000"), Z)]).residual()
    assert off.on("x") == ring.parse("x^40000 - x^79999")
