"""Core polynomial arithmetic: exactness, grading, determinants, resultants."""

import math
import random
from fractions import Fraction

import pytest

from hyperlie import (
    Poly,
    PolyMap,
    PolyMatrix,
    Ring,
    RingMismatchError,
    cast,
    det_minor_expansion,
)

from hyperlie.exactpoly import det_bareiss, divexact, row_reduce, solve_unique
from hyperlie.suite import fraction_det
from oracles import det_cofactor, poly_from_json_obj, resultant, sylvester_matrix


@pytest.fixture
def lring():
    return Ring([("l4", 4), ("l6", 6)])


@pytest.fixture
def xring3():
    return Ring(
        [("x2", 2), ("x3", 3), ("x4", 4), ("y4", 4), ("y5", 5), ("y6", 6),
         ("z6", 6), ("z7", 7), ("z8", 8), ("l4", 4)]
    )


def random_poly(ring, rng, max_terms=4, max_exp=2, bound=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in ring.vars)
        terms[exps] = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
    return Poly(ring, terms)


def homogeneous_poly(ring, rng, weight, tries=200):
    terms = {}
    for _ in range(tries):
        exps = [0] * len(ring.vars)
        w = 0
        for _ in range(4 * weight):  # a greedy walk can dead-end; just restart
            fits = [i for i, vw in enumerate(ring.weights) if 0 < vw <= weight - w]
            if not fits:
                break
            i = rng.choice(fits)
            exps[i] += 1
            w += ring.weights[i]
            if w == weight:
                break
        if w == weight:
            terms[tuple(exps)] = rng.randint(1, 5)
        if len(terms) >= 3:
            break
    return Poly(ring, terms)


# -- arithmetic ---------------------------------------------------------------


def test_additive_inverse(lring):
    l4 = lring.var("l4")
    assert (l4 + (-l4)).is_zero()


def test_add_matches_first_relation(xring3):
    # right side of the first defining relation
    lhs = xring3.parse("6*x2^2") + xring3.parse("4*y4 + 2*l4")
    assert lhs == xring3.parse("6*x2^2 + 4*y4 + 2*l4")


def test_sum_of_homogeneous_is_homogeneous(xring3):
    rng = random.Random(11)
    for _ in range(25):
        w = rng.choice([4, 6, 8])
        p = homogeneous_poly(xring3, rng, w)
        q = homogeneous_poly(xring3, rng, w)
        assert (p + q).is_homogeneous_of(w)


def test_mul_monomials_and_identity(xring3):
    x2, x3 = xring3.var("x2"), xring3.var("x3")
    prod = x2 * x3
    assert prod.weight_check() == 5
    p = xring3.parse("2*x2^3 + 1/4*x3^2")
    assert xring3.one * p == p
    # a term of the genus-1 weight-6 map component
    assert xring3.parse("2*x2") * xring3.parse("3*x2^2") == xring3.parse("6*x2^3")


def test_ring_axioms_randomized():
    ring = Ring([("a", 1), ("b", 2), ("c", 3)])
    rng = random.Random(0)
    for _ in range(120):
        p, q, r = (random_poly(ring, rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_weight_multiplicativity():
    ring = Ring([("a", 1), ("b", 2), ("c", 3)])
    rng = random.Random(5)
    for _ in range(40):
        wp, wq = rng.randint(1, 5), rng.randint(1, 5)
        p = homogeneous_poly(ring, rng, wp)
        q = homogeneous_poly(ring, rng, wq)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).is_homogeneous_of(wp + wq)
        v = rng.choice(ring.vars)
        d = p.partial(v.name)
        assert d.is_homogeneous_of(wp - v.weight)


def test_ring_mismatch_raises(lring, xring3):
    with pytest.raises(RingMismatchError):
        lring.var("l4") + xring3.var("x2")
    with pytest.raises(RingMismatchError):
        lring.var("l4") * xring3.var("x2")


def test_pow():
    ring = Ring([("t", 1)])
    t = ring.var("t")
    assert (t + 1) ** 0 == ring.one
    assert (t + 1) ** 3 == ring.parse("t^3 + 3*t^2 + 3*t + 1")


# -- calculus -----------------------------------------------------------------


def test_partial_power_rule(lring):
    p = lring.parse("l4^2")
    assert p.partial("l4") == lring.parse("2*l4")


def test_partial_absent_variable(xring3):
    assert xring3.parse("x2*x4").partial("x3").is_zero()


def test_partial_of_discriminant(lring):
    r = lring.parse("4*l4^3 + 27*l6^2")
    assert r.partial("l6") == lring.parse("54*l6")


def test_substitute_map_point():
    # R evaluated on the genus-1 map at (x2, x3, x4) = (0, 2, 0)
    lring = Ring([("l4", 4), ("l6", 6)])
    xring = Ring([("x2", 2), ("x3", 3), ("x4", 4)])
    R = lring.parse("4*l4^3 + 27*l6^2")
    comp = {
        "l4": xring.parse("-3*x2^2 + 1/2*x4"),
        "l6": xring.parse("2*x2^3 + 1/4*x3^2 - 1/2*x2*x4"),
    }
    pulled = R.substitute(comp, target=xring)
    assert pulled.evaluate({"x2": 0, "x3": 2, "x4": 0}) == 27


def test_substitute_identity_and_full_evaluation(xring3):
    rng = random.Random(3)
    p = random_poly(xring3, rng)
    assert p.substitute({}) == p
    point = {v.name: Fraction(rng.randint(-3, 3)) for v in xring3.vars}
    subst = p.substitute(point)
    assert subst.constant_value() == p.evaluate(point)


def test_substitute_composition():
    ra = Ring([("u", 1)])
    rb = Ring([("v", 1)])
    rc = Ring([("w", 1)])
    p = ra.parse("u^2 + u")
    a_img = {"u": rb.parse("v + 1")}
    b_img = {"v": rc.parse("2*w")}
    left = p.substitute(a_img).substitute(b_img)
    composed = {"u": rb.parse("v + 1").substitute(b_img)}
    assert left == p.substitute(composed)


# -- grading ------------------------------------------------------------------


def test_weight_check_values(xring3):
    assert xring3.parse("l4*x2").weight_check() == 6
    lam14 = xring3.parse("2*x2*z6^2 + 1/4*z7^2 - 1/2*z6*z8")
    assert lam14.weight_check() == 14
    assert xring3.parse("x2 + l4").weight_check() is None


# -- determinants -------------------------------------------------------------


def test_determinant_of_identity(lring):
    eye = PolyMatrix(lring, [[lring.one, lring.zero], [lring.zero, lring.one]])
    for det in (det_bareiss, det_minor_expansion, det_cofactor):
        assert det(eye) == lring.one


def test_determinant_requires_square(lring):
    m = PolyMatrix(lring, [[lring.one, lring.zero]])
    for det in (det_bareiss, det_minor_expansion, det_cofactor):
        with pytest.raises(ValueError):
            det(m)


def test_minor_expansion_high_exponents_do_not_carry():
    # x^40000 * x^40000 needs more than 16 bits for x's exponent
    ring = Ring([("x", 1), ("y", 1)])
    big = ring.parse("x^40000")
    m = PolyMatrix(ring, [[big, ring.zero], [ring.zero, big]])
    want = ring.parse("x^80000")
    assert det_bareiss(m) == want
    assert det_cofactor(m) == want
    assert det_minor_expansion(m) == want


def test_minor_expansion_with_vanishing_minors():
    # a zero column and a sparse permutation pattern make most minors zero
    ring = Ring([("a", 1), ("b", 2)])
    a, b, z = ring.var("a"), ring.var("b"), ring.zero
    singular = PolyMatrix(ring, [[a, z, b], [b, z, a], [a * b, z, ring.one]])
    assert det_minor_expansion(singular).is_zero()
    sparse = PolyMatrix(ring, [[z, a, z, z], [z, z, z, b], [ring.one, z, z, z],
                               [z, z, a + b, z]])
    assert det_minor_expansion(sparse) == det_cofactor(sparse)
    assert det_minor_expansion(sparse) == ring.parse("-a^2*b - a*b^2")


def test_determinant_methods_agree_small():
    ring = Ring([("a", 1), ("b", 2)])
    rng = random.Random(9)
    for n in range(1, 5):
        for _ in range(10):
            rows = [
                [random_poly(ring, rng, max_terms=2, max_exp=1) for _ in range(n)]
                for _ in range(n)
            ]
            m = PolyMatrix(ring, rows)
            d = det_cofactor(m)
            assert det_bareiss(m) == d
            assert det_minor_expansion(m) == d


def test_row_reduce_agrees_with_minor_expansion_and_solves():
    """``fraction_det``, one ``row_reduce``, against the division-free minor
    expansion of the same constants, on singular matrices and with a zero
    leading pivot among them; each nonsingular A also solves A.x = b."""
    ring = Ring([("a", 1)])
    rng = random.Random(23)
    seen = {"singular": 0, "swap": 0}
    for n in range(1, 6):
        for _ in range(12):
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            variants = [A]
            if n > 1:
                variants += [
                    [[0, *A[0][1:]], *A[1:]],  # no leading pivot: a row swap
                    [*A[:-1], [x + y for x, y in zip(A[0], A[1])]],  # singular
                    [[0, *row[1:]] for row in A],  # a zero column
                ]
            for M in variants:
                want = det_minor_expansion(
                    PolyMatrix(ring, [[ring.const(x) for x in row] for row in M])
                ).constant_value()
                assert fraction_det(M) == want, M
                b = [rng.randint(-5, 5) for _ in range(n)]
                pivots, det = row_reduce(dict(enumerate([*row, y])) for row, y in zip(M, b))
                if want == 0:
                    seen["singular"] += 1
                    assert len(set(pivots) - {n}) < n
                    continue
                seen["swap"] += M[0][0] == 0
                assert sorted(pivots) == list(range(n)) and det == want
                x = [pivots[c].get(n, 0) for c in range(n)]
                assert [sum(a * v for a, v in zip(row, x)) for row in M] == b, M
    assert seen["singular"] >= 50 and seen["swap"] >= 20, seen


@pytest.mark.parametrize("rows, ncols, want", [
    # x + y = 3, x - y = 1, 2x = 4: overdetermined and consistent
    ([{0: 1, 1: 1, 2: 3}, {0: 1, 1: -1, 2: 1}, {0: 2, 2: 4}], 2, [2, 1]),
    # the same with 2x = 5: overdetermined and inconsistent
    ([{0: 1, 1: 1, 2: 3}, {0: 1, 1: -1, 2: 1}, {0: 2, 2: 5}], 2, "no solution"),
    # x + y + z = 1, x - z = 0: underdetermined
    ([{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 2: -1}], 3, "not unique"),
], ids=["consistent", "inconsistent", "underdetermined"])
def test_solve_unique_on_over_and_underdetermined_systems(rows, ncols, want):
    assert solve_unique(rows, ncols) == want


def test_divexact():
    ring = Ring([("a", 1), ("b", 2)])
    p = ring.parse("a^2 + 2*a*b + b^2")  # inhomogeneous grading is fine here
    d = ring.parse("a + b")
    assert divexact(p, d) == d
    with pytest.raises(ValueError):
        divexact(ring.parse("a^2 + 1"), d)
    with pytest.raises(ZeroDivisionError):
        divexact(p, ring.zero)


def test_divexact_raises_where_a_key_difference_would_borrow():
    # x*y / y^2: with y in the low field the key difference x*y - y^2 is
    # y^(2^32 - 1), a borrow out of x's field; with x there it is negative
    for ring in (Ring([("y", 1), ("x", 1)]), Ring([("x", 1), ("y", 1)])):
        y2 = ring.parse("y^2")
        for text in ("x*y", "x*y + y^3", "x*y^2 + x*y"):
            with pytest.raises(ValueError):
                divexact(ring.parse(text), y2)
        assert divexact(ring.parse("x*y^2 + y^3"), y2) == ring.parse("x + y")


# -- differential tests against sympy -------------------------------------------
#
# Hypothesis draws the inputs and sympy is the independent oracle; both are
# test-time only and the tests skip where they are not installed.  The ring
# has a zero-weight variable between two graded ones, so ties in weight are
# broken by the exponent tuple.

ORACLE_RING = Ring([("a", 1), ("c", 0), ("b", 2)])


def _oracle_tools():
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hyp.strategies
    coeff = st.builds(
        Fraction,
        st.integers(-6, 6).filter(bool),
        st.integers(1, 4),
    )
    mono = st.tuples(*[st.integers(0, 3)] * len(ORACLE_RING.vars))

    def polys(max_terms=5, nonzero=False):
        terms = st.dictionaries(mono, coeff, min_size=int(nonzero), max_size=max_terms)
        return terms.map(lambda t: Poly(ORACLE_RING, t))

    settings = hyp.settings(max_examples=150, deadline=None, database=None)
    return hyp, sympy, polys, settings


def _to_sympy(sympy, p):
    gens = sympy.symbols(ORACLE_RING.names)
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(g**e for g, e in zip(gens, m)))
        for m, c in p.terms.items()
    ))


def test_divexact_inverts_mul_differential():
    hyp, _, polys, settings = _oracle_tools()

    @settings
    @hyp.given(polys(), polys(nonzero=True))
    def check(p, d):
        assert divexact(p * d, d) == p

    check()


def test_divexact_rejects_what_sympy_cannot_divide():
    hyp, sympy, polys, settings = _oracle_tools()
    gens = sympy.symbols(ORACLE_RING.names)

    @settings
    @hyp.given(polys(), polys(nonzero=True), polys(max_terms=3, nonzero=True))
    def check(p, d, r):
        n = p * d + r
        q, rem = sympy.div(_to_sympy(sympy, n), _to_sympy(sympy, d), *gens)
        if rem != 0:
            with pytest.raises(ValueError):
                divexact(n, d)
        else:
            assert sympy.expand(_to_sympy(sympy, divexact(n, d)) - q) == 0

    check()


def test_det_bareiss_matches_cofactor_and_sympy():
    hyp, sympy, polys, settings = _oracle_tools()
    st = hyp.strategies

    @st.composite
    def matrices(draw):
        n = draw(st.integers(1, 3))
        entry = polys(max_terms=2)
        return PolyMatrix(ORACLE_RING, [[draw(entry) for _ in range(n)] for _ in range(n)])

    @settings
    @hyp.given(matrices())
    def check(m):
        det = det_bareiss(m)
        assert det == det_cofactor(m)
        oracle = sympy.Matrix([[_to_sympy(sympy, p) for p in row] for row in m.rows]).det()
        assert sympy.expand(_to_sympy(sympy, det) - oracle) == 0

    check()


# The target of a cross-ring substitution lists the oracle ring's variables
# in another order, plus one the source lacks.
CROSS_RING = Ring([("u", 3), ("b", 2), ("c", 0), ("a", 1)])


def _reference_substitute(p, assignment, target):
    """p with the assignment substituted, in Poly arithmetic."""
    out = target.zero
    for m, c in p.terms.items():
        term = target.const(c)
        for name, e in zip(p.ring.names, m):
            y = assignment.get(name, None)
            if y is None:
                y = target.var(name)
            elif not isinstance(y, Poly):
                y = target.const(y)
            term = term * y**e
        out = out + term
    return out


def test_substitute_matches_poly_arithmetic_and_sympy():
    hyp, sympy, polys, settings = _oracle_tools()
    st = hyp.strategies
    cross_coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    cross_polys = st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * len(CROSS_RING.vars)), cross_coeff, max_size=4,
    ).map(lambda t: Poly(CROSS_RING, t))
    numbers = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))

    @st.composite
    def cases(draw):
        cross = draw(st.booleans())
        images = cross_polys if cross else polys(max_terms=3)
        # each variable: passed through, a number, or a polynomial
        assignment = {}
        for name in ORACLE_RING.names:
            kind = draw(st.sampled_from(["pass", "number", "poly"]))
            if kind != "pass":
                assignment[name] = draw(numbers if kind == "number" else images)
        return draw(polys()), assignment, CROSS_RING if cross else ORACLE_RING

    def to_sympy(q):
        gens = sympy.symbols(q.ring.names)
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(g**e for g, e in zip(gens, m)))
            for m, c in q.terms.items()
        ))

    @settings
    @hyp.given(cases())
    def check(case):
        p, assignment, target = case
        got = p.substitute(assignment, target=target)
        assert got.ring == target
        assert got.terms == _reference_substitute(p, assignment, target).terms
        assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
        subs = {
            sympy.Symbol(name): to_sympy(y) if isinstance(y, Poly)
            else sympy.Rational(y.numerator, y.denominator)
            for name, y in assignment.items()
        }
        want = sympy.expand(to_sympy(p).xreplace(subs))
        assert sympy.expand(to_sympy(got) - want) == 0

    check()


def test_substitute_infers_target_and_keeps_unassigned_names():
    p = ORACLE_RING.parse("1/2*a^2*c + b")
    got = p.substitute({"a": CROSS_RING.parse("u + 1/3*a")})
    assert got.ring == CROSS_RING
    assert got == CROSS_RING.parse("1/2*u^2*c + 1/3*u*a*c + 1/18*a^2*c + b")
    assert p.substitute({"a": 2, "c": Fraction(1, 4)}) == ORACLE_RING.parse("1/2 + b")
    assert p.substitute({"b": ORACLE_RING.zero}) == ORACLE_RING.parse("1/2*a^2*c")
    with pytest.raises(KeyError):
        p.substitute({"a": Ring([("u", 1)]).var("u")})  # b and c absent from target


def test_substitute_high_exponents_do_not_carry():
    # x^40000 * y under x -> x^2*y needs x^80000: 17 bits, beyond a 16-bit field
    ring = Ring([("x", 1), ("y", 1)])
    p = ring.parse("x^40000*y + 3*y^2")
    got = p.substitute({"x": ring.parse("x^2*y")})
    assert got.terms == {(80000, 40001): 1, (0, 2): 3}
    assert p.substitute({"y": ring.parse("1/2*y^40000")}).terms == {
        (40000, 40000): Fraction(1, 2), (0, 80000): Fraction(3, 4)}


def test_pullback_equals_substitute_for_growing_arguments():
    source = Ring([("x", 1), ("y", 1)])
    target = Ring([("s", 2), ("t", 3)])
    pm = PolyMap("p", source, target, {"s": source.parse("x*y - 1/2*x^2"),
                                       "t": source.parse("y^3")})
    small, large = target.parse("s + t^2"), target.parse("s^2*t^30000 + 2/3*t")
    for q in (small, large, small, target.parse("s^3")):
        # a layout sized for the previous argument must not serve this one
        assert pm.pullback(q) == q.substitute(pm.components, target=source)
    assert pm.pullback(large).terms[(2, 90002)] == 1


# -- resultants ---------------------------------------------------------------


def test_resultant_discriminant_genus1():
    ring = Ring([("X", 2), ("l4", 4), ("l6", 6)])
    f = ring.parse("X^3 + l4*X + l6")
    r = resultant(f, f.partial("X"), "X")
    assert cast(r, Ring([("l4", 4), ("l6", 6)])) == Ring(
        [("l4", 4), ("l6", 6)]
    ).parse("4*l4^3 + 27*l6^2")


def test_resultant_coprime_linear():
    ring = Ring([("X", 1)])
    r = resultant(ring.var("X"), ring.parse("X - 1"), "X")
    assert r.constant_value() in (1, -1)
    assert abs(r.constant_value()) == 1


def test_resultant_zero_input_raises():
    ring = Ring([("X", 1)])
    with pytest.raises(ValueError):
        resultant(ring.zero, ring.var("X"), "X")


def test_genus2_resultant_against_cofactor_oracle():
    # independent oracle: division-free cofactor expansion (shared subtrees)
    # of the 9x9 Sylvester matrix, against the production Bareiss elimination
    vs = [("X", 2)] + [(f"l{s}", s) for s in (4, 6, 8, 10)]
    ring = Ring(vs)
    f = ring.parse("X^5 + l4*X^3 + l6*X^2 + l8*X + l10")
    syl = sylvester_matrix(f, f.partial("X"), "X")
    assert syl.nrows == syl.ncols == 9
    assert det_bareiss(syl) == det_minor_expansion(syl)


# -- serialization ------------------------------------------------------------


def test_text_roundtrip_randomized(xring3):
    rng = random.Random(17)
    for _ in range(60):
        p = random_poly(xring3, rng)
        assert xring3.parse(p.to_text()) == p


def test_json_roundtrip(xring3):
    p = xring3.parse("-4/3*l4^3 + 1/2*x2*z8 - x3")
    obj = p.to_json_obj()
    assert poly_from_json_obj(xring3, obj) == p


def test_json_form_matches_convention(lring):
    p = lring.parse("-4/3*l4^3")
    assert p.to_json_obj() == {"terms": [{"c": "-4/3", "m": {"l4": 3}}]}
    assert p.to_text() == "-4/3*l4^3"


def test_canonical_order_is_weight_then_name(xring3):
    p = xring3.parse("z6 + x2 + x2^3 + y4")
    # ascending weight (2, 4, 6, 6); the weight-6 tie breaks by name x2 < z6
    assert p.to_text() == "x2 + y4 + x2^3 + z6"


# -- parsing ------------------------------------------------------------------


def test_parse_grammar_gives_expected_polys(lring):
    l4, l6 = lring.var("l4"), lring.var("l6")
    assert lring.parse("-4/3*l4^3") == l4 * l4 * l4 * Fraction(-4, 3)
    assert lring.parse("(2/3)^2") == lring.const(Fraction(4, 9))
    assert lring.parse("-l4^2") == -(l4 * l4)
    assert lring.parse("2*-l4") == l4 * -2
    assert lring.parse(" +(l4 - l6)*3 ") == l4 * 3 - l6 * 3
    # a name in env reads as its value; other names stay ring variables
    assert lring.parse("2*s + l6", {"s": l4 * l4}) == l4 * l4 * 2 + l6
    assert lring.parse("h*l4 + h", {"h": Fraction(1, 2)}) == (
        l4 * Fraction(1, 2) + Fraction(1, 2)
    )
    with pytest.raises(KeyError):
        lring.parse("l8")


@pytest.mark.parametrize(
    "text",
    ["l4/2", "2/3^2", "l4^2^3", "l4^-1", "l4^l6", "1.5*l4", "f(l4)", "2 l4",
     "", "l4**2", "2/0", "l4 == l6"],
)
def test_parse_rejects_what_the_grammar_excludes(lring, text):
    # "2/3^2" and "l4^2^3" once read as (2/3)^2 and l4^6; no text uses them
    with pytest.raises(ValueError):
        lring.parse(text)


def test_one_polynomial_has_one_form_whatever_its_denominator(lring):
    from hyperlie.exactpoly import _int_form, _unscaled

    p = lring.parse("1/2*l4^3 - 2/3*l6")
    q = lring.parse("5/7*l4*l6 + 1/3*l6")
    assert (p.num, p.den) == ({lring.pack((3, 0)): 3, lring.pack((0, 1)): -4}, 6)
    assert p.terms == {(3, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3)}
    d, (nums,) = _int_form([p])
    scaled = {m: 35 * c for m, c in nums.items()}
    for r in ((p * Fraction(5, 3)) * Fraction(3, 5), (p + q) - q,
              _unscaled(lring, scaled, 35 * d)):
        assert r == p and hash(r) == hash(p)
        assert r.den > 0 and math.gcd(r.den, *r.num.values()) == 1
    assert p != p + lring.parse("1/6*l4^3") and p != p + lring.parse("l6^2")
    cancelled = _unscaled(lring, {k: 0 for k in scaled}, 35 * d)
    assert cancelled == lring.zero and (cancelled.num, cancelled.den) == ({}, 1)
    assert (q - q).den == 1 and (p * 6).den == 1 and (p * 6).num == p.num


def test_constant_polynomials_hash_as_their_values(lring):
    # equal objects must hash equal, or sets and dicts hold both
    for value in (3, Fraction(1, 2), -7, 0):
        const = lring.const(value)
        assert const == value and hash(const) == hash(value)
        assert len({const, value}) == 1
    assert len({lring.zero, 0, lring.parse("l4 - l4")}) == 1
    assert {lring.parse("3/2"): "c"}[Fraction(3, 2)] == "c"


def test_pack_and_unpack_round_trip(xring3):
    rng = random.Random(5)
    top = 2**31 - 1
    for _ in range(200):
        exps = tuple(rng.choice((0, 1, rng.randrange(top), top)) for _ in xring3.vars)
        key = xring3.pack(exps)
        assert xring3.unpack(key) == exps
        assert Poly(xring3, {exps: 1}).num == {key: 1}
    assert xring3.pack((0,) * 10) == 0 and xring3.unpack(0) == (0,) * 10
    assert xring3.var("x3").num == {xring3.pack((0, 1) + (0,) * 8): 1}


def test_pack_rejects_exponents_that_would_alias(lring):
    # an exponent of 2^31 or more would read as another variable's exponent
    for exps in ((2**31, 0), (2**32, 0), (0, 2**31), (2**40, 2**40)):
        with pytest.raises(OverflowError):
            lring.pack(exps)
        with pytest.raises(OverflowError):
            Poly(lring, {exps: 1})
    for exps in ((1,), (1, 2, 3), (-1, 0)):
        with pytest.raises(ValueError):
            lring.pack(exps)


def test_products_raise_when_an_exponent_reaches_2_31():
    ring = Ring([("x", 1), ("y", 1)])
    half = Poly(ring, {(2**30, 0): 1})
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        half**2
    with pytest.raises(OverflowError):
        ring.var("x") ** (2**31)
    assert (half * Poly(ring, {(2**30 - 1, 0): 1})).terms == {(2**31 - 1, 0): 1}
    for assignment in ({"x": half}, {"x": ring.var("y"), "y": half}):
        with pytest.raises(OverflowError):
            ring.parse("x^4*y^2").substitute(assignment)
    with pytest.raises(OverflowError):
        ring.parse("x*y").substitute({"x": half, "y": half})
    # at n = 5 an unchecked minor would reach x^(2^32) and read as y
    for n in (2, 5):
        diag = PolyMatrix(ring, [[half if i == j else ring.zero for j in range(n)]
                                 for i in range(n)])
        with pytest.raises(OverflowError):
            det_minor_expansion(diag)


def test_genus2_monomial_keys_hash_apart(catalogs_zero):
    # CPython hashes ints modulo 2^61 - 1; narrower fields fold these keys
    # onto 743 (20-bit) or 568 (30-bit) hashes and slow every dict
    from hyperlie.genus_fields import build_Tcal

    det = det_minor_expansion(build_Tcal(catalogs_zero[2]))
    assert len(det.num) == 775
    assert len({hash(k) for k in det.num}) == 775


def test_kernels_build_no_fraction(catalogs, monkeypatch):
    from hyperlie.derivation import linear_sum

    cat = catalogs[2]
    L3, L4 = cat.fields["L3"], cat.fields["L4"]
    comp = cat.pmap.components["l6"]
    image = cat.pmap.target.parse("1/3*l4^2 - 2/5*l8")
    p, q = cat.ring.parse("1/2*x2 + 2/3*x3"), cat.ring.parse("3/4*x2^2 - 1/5")
    # every result below has non-integral coefficients
    assert all(r.den != 1 for r in (L3.bracket(L4).on("x2"), L4.apply(comp),
                                    cat.pmap.pullback(image), p * q, p + q,
                                    linear_sum(cat.ring, [(L4, comp)], [(p, q)])))
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    L3.bracket(L4)
    L4.apply(comp)
    cat.pmap.pullback(image)
    p * q
    p + q
    linear_sum(cat.ring, [(L4, comp), (L3, p)], [(p, q)])
    monkeypatch.undo()
    assert built == []
