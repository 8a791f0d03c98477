"""Relation system and elimination onto the polynomial map."""

import random

import pytest

from hyperlie import reference
from hyperlie.param_map import (
    build_p,
    eliminate,
    generate_relations,
    jacobi_map,
    verify_relations_vanish,
)


@pytest.mark.parametrize("g,count", [(1, 2), (2, 5), (3, 9), (4, 14), (5, 20)])
def test_relation_count(g, count):
    rels = generate_relations(g)
    assert len(rels) == count == g * (g + 3) // 2


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_relations_homogeneous(g):
    for rel in generate_relations(g).relations:
        assert rel.poly.weight_check() is not None, rel.label


def test_genus1_relations_are_the_two_squares():
    rels = generate_relations(1)
    assert sorted(r.label for r in rels.relations) == ["sq1", "sq2"]
    assert sorted(r.target for r in rels.relations) == ["l4", "l6"]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_elimination_matches_displayed_map(g):
    jm = jacobi_map(g)
    ring = jm.ring
    for name, text in reference.MAP[g].items():
        assert jm.lambda_exprs[int(name[1:])] == ring.parse(text), name
    for kl, text in reference.W_EXPRS.get(g, {}).items():
        assert jm.w_exprs[kl] == ring.parse(text), kl


def test_w10_display():
    jm = jacobi_map(3)
    assert jm.w_exprs[(5, 5)] == jm.ring.parse(
        "1/2*(x4*z6 - x3*z7 + x2*z8) - (4*x2^2 + y4)*z6"
    )


@pytest.mark.parametrize("g", [1, 2, 3])
def test_components_homogeneous(g):
    jm = jacobi_map(g)
    for s, p in jm.lambda_exprs.items():
        assert p.is_homogeneous_of(s)
    for (k, l), p in jm.w_exprs.items():
        assert p.is_homogeneous_of(k + l)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_relations_vanish_after_substitution(g):
    rels = generate_relations(g)
    jm = eliminate(rels)
    assert jm.rels is rels
    assert verify_relations_vanish(jm) == {}


def test_perturbed_map_breaks_a_relation():
    rels = generate_relations(1)
    jm = eliminate(rels)
    jm.lambda_exprs[6] = jm.lambda_exprs[6] + 1
    bad = verify_relations_vanish(jm)
    assert bad


def test_elimination_order_independent():
    rng = random.Random(4)
    base = eliminate(generate_relations(3))
    for _ in range(5):
        rels = generate_relations(3)
        rng.shuffle(rels.relations)
        jm = eliminate(rels)
        assert jm.lambda_exprs == base.lambda_exprs
        assert jm.w_exprs == base.w_exprs


def test_eliminate_rejects_nonlinear_target():
    rels = generate_relations(1)
    # sabotage: retarget a relation at a symbol it is quadratic in
    rels.relations[0].target = "x2"
    with pytest.raises(ValueError):
        eliminate(rels)


def test_build_p_components_ordered():
    jm = jacobi_map(2)
    p = build_p(jm)
    assert list(p.components) == ["l4", "l6", "l8", "l10"]
    for s, comp in jm.lambda_exprs.items():
        assert p.components[f"l{s}"] == comp


def test_pullback_is_ring_homomorphism():
    jm = jacobi_map(2)
    p = build_p(jm)
    a = p.target.parse("l4*l6")
    b = p.target.parse("l8 + 2*l4^2")
    assert p.pullback(a * b) == p.pullback(a) * p.pullback(b)
    assert p.pullback(a + b) == p.pullback(a) + p.pullback(b)


def test_genus4_elimination_consistent():
    # beyond the displayed genera: the triangular solve still closes
    rels = generate_relations(4)
    jm = eliminate(rels)
    assert verify_relations_vanish(jm) == {}
    assert len(jm.lambda_exprs) == 8
    assert len(jm.w_exprs) == 6
