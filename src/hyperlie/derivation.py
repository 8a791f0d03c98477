"""Polynomial vector fields as derivations of a graded polynomial ring.

A derivation is determined by its action on the ring variables; variables
absent from the action map are annihilated.  Application extends by the
Leibniz rule, and the commutator of two derivations is again a derivation.

``apply``, ``linear_sum`` and ``bracket_sum`` share one fused integer loop,
``exactpoly._leibniz``, on the monomial keys of ``Poly.num``.  The argument
is its integer numerators over its denominator (``Poly.num`` /
``Poly.den``); the images are put over one common denominator, each with
its variable's bit offset, once per derivation and memoised in ``_scaled``,
since its action is never changed after construction.  For each term c*x^m and each variable x_i with
e = m_i > 0, c*e times every image term is added straight into one dict of
Python ints.  ``linear_sum`` adds images and products f * g
(``exactpoly._mul_into``) into that one dict; ``apply`` is its one-image
case.  The nonzero terms become a ``Poly`` once, common factor divided out.

``bracket_sum`` computes a Lie relation sum s * [X, Y] + sum c * Z, s an
int and c a polynomial, in one such pass.  Every term goes over the common
denominator lcm(D_X * D_Y, d_c * D_Z).  For each variable v one dict
accumulates both halves X(Y(v)) - Y(X(v)) of every bracket term and every
product c * Z(v).  No intermediate bracket, product, sum or ``Fraction`` is
built.  ``Derivation.bracket`` is its one-bracket case, ``combination`` its
linear-only case, and ``BracketRelation.residual`` the relation
[X, Y] - sum c_k * Z_k.  A derivation's ``+``, ``-``, negation and
``scale`` are each one ``combination``.

``ladder_complete`` reconstructs a field from its values on a set of seed
variables plus a prescribed commutator with a partner field, walking a chain
of variables v -> partner(v).  It only constructs: whether the seeds are
consistent with the commutator is decided by the relation's residual.
"""

from __future__ import annotations

from math import lcm
from typing import Mapping, Sequence

from .exactpoly import (
    Poly, Ring, RingMismatchError, _WIDTH, _int_form, _leibniz, _mul_into, _unscaled,
)


class Derivation:
    """A polynomial vector field: finite map {variable name -> Poly}."""

    __slots__ = ("name", "ring", "weight", "action", "_scaled")

    def __init__(self, name: str, ring: Ring, action: Mapping, weight=None):
        self.name = name
        self.ring = ring
        self.weight = weight
        clean = {}
        for v, p in action.items():
            ring.index(v)
            if not isinstance(p, Poly):
                p = ring.const(p)
            if p.ring != ring:
                raise RingMismatchError(f"action on {v} from another ring")
            if not p.is_zero():
                clean[v] = p
        self.action = clean
        self._scaled = None

    def _scaled_action(self):
        """(D, ints, images): action[v] = ints[v] / D for one common D, and
        images the ``_leibniz`` images of every acted-on variable."""
        if self._scaled is None:
            D, parts = _int_form(self.action.values())
            ints = dict(zip(self.action, parts))
            shifts = [_WIDTH * self.ring.index(v) for v in ints]
            images = [(s, 1 << s, t) for s, t in zip(shifts, ints.values())]
            self._scaled = (D, ints, images)
        return self._scaled

    def apply(self, p: Poly) -> Poly:
        """Leibniz-rule application: sum of action[v] * dp/dv."""
        return linear_sum(self.ring, applied=[(self, p)])

    def on(self, v: str) -> Poly:
        """Action on a single variable (zero when absent)."""
        self.ring.index(v)
        return self.action.get(v, self.ring.zero)

    def bracket(self, other: "Derivation") -> "Derivation":
        """Commutator [self, other] as a derivation."""
        w = None
        if self.weight is not None and other.weight is not None:
            w = self.weight + other.weight
        return bracket_sum([(1, self, other)], f"[{self.name},{other.name}]", weight=w)

    # -- module structure --------------------------------------------------

    def __add__(self, other: "Derivation") -> "Derivation":
        return combination([(1, self), (1, other)], self.ring,
                           f"({self.name}+{other.name})")

    def __sub__(self, other: "Derivation") -> "Derivation":
        return combination([(1, self), (-1, other)], self.ring,
                           f"({self.name}+(-1)*{other.name})")

    def __neg__(self) -> "Derivation":
        return combination([(-1, self)], self.ring, f"(-1)*{self.name}")

    def scale(self, c) -> "Derivation":
        """Multiply by a polynomial (or rational) coefficient."""
        return combination([(c, self)], self.ring, f"({c})*{self.name}")

    def is_zero(self) -> bool:
        return not self.action

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.ring == other.ring and self.action == other.action

    def __hash__(self):
        return hash((self.ring, frozenset(self.action.items())))

    def rename(self, name: str, weight=None) -> "Derivation":
        return Derivation(
            name, self.ring, self.action, weight=self.weight if weight is None else weight
        )

    def __repr__(self):
        return f"Derivation({self.name})"


def linear_sum(ring: Ring, applied: Sequence = (), products: Sequence = ()) -> Poly:
    """sum L(p) over the (L, p) of ``applied`` plus sum f * g over the (f, g)
    of ``products``, all of ``ring``, in one integer pass that builds no
    intermediate ``Poly`` or ``Fraction``; empty sums give zero."""
    leibniz, mul = [], []
    for L, p in applied:
        if (L.ring is not ring or p.ring is not ring) and not L.ring == p.ring == ring:
            raise RingMismatchError("linear sum of operands from another ring")
        D, _, images = L._scaled_action()
        leibniz.append((p.num, images, D * p.den))
    for f, g in products:
        if (f.ring is not ring or g.ring is not ring) and not f.ring == g.ring == ring:
            raise RingMismatchError("linear sum of operands from another ring")
        mul.append((f.num, g.num, f.den * g.den))
    den = lcm(*[d for *_, d in leibniz], *[d for *_, d in mul])
    acc = {}
    for num, images, d in leibniz:
        _leibniz(acc, num, images, den // d)
    for a, b, d in mul:
        _mul_into(acc, a, b, den // d)
    return _unscaled(ring, acc, den)


def bracket_sum(terms: Sequence, name: str = "bracket_sum", weight=None,
                linear: Sequence = (), ring: Ring | None = None) -> Derivation:
    """sum s * [X, Y] over the (s, X, Y) of ``terms``, s an int, plus
    sum c * Z over the (c, Z) of ``linear``, c a Poly, int or Fraction, in one
    integer pass: no intermediate bracket, product, sum or ``Fraction`` is
    built.  ``ring`` is needed only when both sequences are empty."""
    if ring is None:
        ring = terms[0][1].ring if terms else linear[0][1].ring
    coeffs = [c if isinstance(c, Poly) else ring.const(c) for c, _ in linear]
    if (any(X.ring != ring or Y.ring != ring for _, X, Y in terms)
            or any(c.ring != ring or Z.ring != ring
                   for c, (_, Z) in zip(coeffs, linear))):
        raise RingMismatchError("relation of derivations on different rings")
    halves = [(s, X._scaled_action(), Y._scaled_action()) for s, X, Y in terms if s]
    products = [(c, Z._scaled_action()) for c, (_, Z) in zip(coeffs, linear) if c]
    L = lcm(*(X[0] * Y[0] for _, X, Y in halves), *(c.den * Z[0] for c, Z in products))
    action = {}
    for v in ring.names:
        acc = {}
        for s, (D_X, px, ix), (D_Y, py, iy) in halves:
            f = s * (L // (D_X * D_Y))
            if v in py:
                _leibniz(acc, py[v], ix, f)
            if v in px:
                _leibniz(acc, px[v], iy, -f)
        for c, (D_Z, pz, _) in products:
            if v in pz:
                _mul_into(acc, c.num, pz[v], L // (c.den * D_Z))
        if acc:
            q = _unscaled(ring, acc, L)
            if not q.is_zero():
                action[v] = q
    return Derivation(name, ring, action, weight=weight)


def combination(terms: Sequence, ring: Ring, name: str = "comb") -> Derivation:
    """Module combination sum(coeff * field) as a single derivation."""
    return bracket_sum((), name, linear=terms, ring=ring)


class BracketRelation:
    """A claimed identity [left, right] = sum of coeff * field."""

    __slots__ = ("left", "right", "expansion", "label")

    def __init__(self, left: Derivation, right: Derivation, expansion, label=None):
        self.left = left
        self.right = right
        self.expansion = list(expansion)
        self.label = label or f"[{left.name},{right.name}]"

    def residual(self) -> Derivation:
        """bracket(left, right) minus the claimed expansion (zero iff it
        holds), in one ``bracket_sum`` pass."""
        return bracket_sum([(1, self.left, self.right)], self.label,
                           linear=[(-c, Z) for c, Z in self.expansion])


def verify_pushforward(d_up: Derivation, p: Mapping, d_down) -> dict[str, Poly]:
    """{s: d_up(p_s) - p*(d_down(s))} for every component s of the map p =
    {s: p_s}, d_down=None standing for the zero field: d_up projects onto
    d_down exactly when every residual is zero, both sides derivations."""
    return {s: d_up.apply(p_s) if d_down is None else
            d_up.apply(p_s) - d_down.on(s).substitute(p, target=d_up.ring)
            for s, p_s in p.items()}


class LadderError(ValueError):
    """Raised when a ladder's steps cannot be walked."""


def ladder_complete(
    name: str,
    seeds: Mapping,
    partner: Derivation,
    rhs: Derivation,
    ladder: Sequence[tuple],
    weight=None,
) -> Derivation:
    """The unique field D with the given seed values that can satisfy
    [partner, D] = rhs.

    ``seeds`` maps variable names to ``Poly`` values, and ``ladder`` lists
    pairs (src, dst) of variable names with partner(src) = dst;
    each step forces D(dst) = partner(D(src)) - rhs(src).  D satisfies the
    identity exactly when the seeds are consistent with rhs; the residual of
    ``BracketRelation(partner, D, [(1, rhs)])`` decides that.
    """
    ring = partner.ring
    action = dict(seeds)
    for src, dst in ladder:
        if src not in action:
            raise LadderError(f"ladder reaches {dst} before {src} is known")
        if partner.on(src) != ring.var(dst):
            raise LadderError(f"partner does not map {src} to {dst}")
        action[dst] = partner.apply(action[src]) - rhs.on(src)
    return Derivation(name, ring, action, weight=weight)
