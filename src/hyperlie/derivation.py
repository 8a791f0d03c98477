"""Polynomial vector fields as derivations of a graded polynomial ring.

A derivation is determined by its action on the ring variables; variables
absent from the action map are annihilated.  Application extends by the
Leibniz rule, and the commutator of two derivations is again a derivation.

``apply`` and ``bracket_sum`` share one fused integer loop, ``_leibniz``,
over packed monomials: one int per monomial, one bit field per variable
(``exactpoly._layout``).  Each field is as wide as the largest argument
exponent plus the largest image exponent of its variable, so no product
exponent carries into the next field.  The argument's coefficients are put
over their common denominator, and so are the derivation's images; the
images are packed once per layout and memoised per derivation in
``_scaled``, since its action is never changed after construction.  For
each term c*x^m and each variable x_i with e = m_i > 0, c*e times every
image term is added at the packed exponent m - unit_i + k straight into one
dict of Python ints.  Only the nonzero terms of the result are unpacked and
divided by the denominator, once.

``bracket_sum`` computes a Lie relation sum s * [X, Y] + sum c * Z, s an
int and c a polynomial, in one such pass.  Every term goes over the common
denominator lcm(D_X * D_Y, d_c * D_Z), and one packed layout serves them
all: field i is as wide as the largest top_X[i] + top_Y[i] and
top_c[i] + top_Z[i] need.  For each variable v one dict accumulates both
halves X(Y(v)) - Y(X(v)) of every bracket term and every product c * Z(v).
No intermediate bracket, product, sum or ``Fraction`` is built.
``Derivation.bracket`` is its one-bracket case, ``combination`` its
linear-only case, and ``BracketRelation.residual`` the relation
[X, Y] - sum c_k * Z_k.

``ladder_complete`` reconstructs a field from its values on a set of seed
variables plus a prescribed commutator with a partner field, walking a chain
of variables v -> partner(v).
"""

from __future__ import annotations

from math import lcm
from operator import add
from typing import Mapping, Sequence

from .exactpoly import (
    Poly, PolyMap, Ring, RingMismatchError, _int_form, _layout, _mul_into, _pack,
    _same_quotient, _top, _unscaled,
)


def _leibniz(acc: dict, terms: Mapping, images, f: int):
    """acc += f * sum_i images_i * d(terms)/dx_i, on packed monomials.

    ``images`` lists (shift, mask, unit, image terms) per acted-on x_i: the
    exponent of x_i in m is (m >> shift) & mask, m - unit lowers it by one,
    and adding an image key k multiplies by x^k.
    """
    get = acc.get
    for m, c in terms.items():
        for s, mask, unit, img in images:
            e = (m >> s) & mask
            if e:
                ce = f * c * e
                base = m - unit
                for k, ci in img.items():
                    key = base + k
                    acc[key] = get(key, 0) + ce * ci


class Derivation:
    """A polynomial vector field: finite map {variable name -> Poly}."""

    __slots__ = ("name", "ring", "weight", "action", "_scaled")

    def __init__(self, name: str, ring: Ring, action: Mapping, weight=None):
        self.name = name
        self.ring = ring
        self.weight = weight
        clean = {}
        for key, p in action.items():
            vname = key if isinstance(key, str) else key.name
            ring.index(vname)
            if not isinstance(p, Poly):
                p = ring.const(p)
            if p.ring != ring:
                raise RingMismatchError(f"action on {vname} from another ring")
            if not p.is_zero():
                clean[vname] = p
        self.action = clean
        self._scaled = None

    def _scaled_action(self):
        """(D, ints, top, packings): action[v] = ints[v] / D for one common
        D, top the largest exponent of each variable over the images, and
        packings the memo of ``_packed``, one entry per layout."""
        if self._scaled is None:
            D, parts = _int_form(self.action.values())
            top = _top((m for t in parts for m in t), len(self.ring.vars))
            self._scaled = (D, dict(zip(self.action, parts)), top, {})
        return self._scaled

    def _packed(self, layout: tuple):
        """({v: packed ints}, images): the images times D packed in
        ``layout``, and the ``_leibniz`` images of every acted-on variable."""
        _, ints, _, packings = self._scaled_action()
        if layout not in packings:
            packed = {v: _pack(t, layout) for v, t in ints.items()}
            images = []
            for v, t in packed.items():
                s, mask = layout[self.ring.index(v)]
                images.append((s, mask, 1 << s, t))
            packings[layout] = (packed, images)
        return packings[layout]

    def __call__(self, p: Poly) -> Poly:
        return self.apply(p)

    def apply(self, p: Poly) -> Poly:
        """Leibniz-rule application: sum of action[v] * dp/dv."""
        return _unscaled(self.ring, *self._applied(p))

    def _applied(self, p: Poly) -> tuple:
        """(acc, d, layout): ``apply(p)`` is acc / d, keys packed in layout."""
        if p.ring != self.ring:
            raise RingMismatchError("argument not in the derivation's ring")
        d, (terms,) = _int_form([p])
        D, _, top, packings = self._scaled_action()
        bounds = list(map(add, _top(terms, len(top)), top))
        # Any memoised layout whose fields hold the bounds serves; a new one
        # is packed only when none does.
        layout = next((lay for lay in packings
                       if all(b <= mask for b, (_, mask) in zip(bounds, lay))), None)
        if layout is None:
            layout = _layout(bounds)
        acc = {}
        _leibniz(acc, _pack(terms, layout), self._packed(layout)[1], 1)
        return acc, d * D, layout

    def on(self, var) -> Poly:
        """Action on a single variable (zero when absent)."""
        vname = var if isinstance(var, str) else var.name
        self.ring.index(vname)
        return self.action.get(vname, self.ring.zero)

    def bracket(self, other: "Derivation") -> "Derivation":
        """Commutator [self, other] as a derivation."""
        w = None
        if self.weight is not None and other.weight is not None:
            w = self.weight + other.weight
        return bracket_sum([(1, self, other)], f"[{self.name},{other.name}]", weight=w)

    # -- module structure --------------------------------------------------

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.ring != other.ring:
            raise RingMismatchError("sum of derivations on different rings")
        action = {}
        for vname in set(self.action) | set(other.action):
            q = self.on(vname) + other.on(vname)
            if not q.is_zero():
                action[vname] = q
        return Derivation(f"({self.name}+{other.name})", self.ring, action)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def __neg__(self) -> "Derivation":
        action = {v: -p for v, p in self.action.items()}
        return Derivation(f"(-1)*{self.name}", self.ring, action)

    def scale(self, c) -> "Derivation":
        """Multiply by a polynomial (or rational) coefficient."""
        if not isinstance(c, Poly):
            c = self.ring.const(c)
        action = {v: c * p for v, p in self.action.items()}
        return Derivation(f"({c})*{self.name}", self.ring, action)

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

    def homogeneity_defects(self) -> list[str]:
        """Variables whose image is not homogeneous of weight(v) + weight."""
        if self.weight is None:
            return []
        bad = []
        for vname, p in self.action.items():
            w = self.ring.weights[self.ring.index(vname)]
            if not p.is_homogeneous_of(w + self.weight):
                bad.append(vname)
        return bad

    def __repr__(self):
        return f"Derivation({self.name})"

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "weight": self.weight,
            "action": {
                v: self.on(v).to_text()
                for v in self.ring.names
                if v in self.action
            },
        }


def bracket_sum(terms: Sequence, name: str = "bracket_sum", weight=None,
                linear: Sequence = (), ring: Ring | None = None) -> Derivation:
    """sum s * [X, Y] over the (s, X, Y) of ``terms``, s an int, plus
    sum c * Z over the (c, Z) of ``linear``, c a Poly or rational, in one
    integer pass: no intermediate bracket, product, sum or ``Fraction`` is
    built.  ``ring`` is needed only when both sequences are empty."""
    if ring is None:
        ring = terms[0][1].ring if terms else linear[0][1].ring
    coeffs = [c if isinstance(c, Poly) else ring.const(c) for c, _ in linear]
    if (any(X.ring != ring or Y.ring != ring for _, X, Y in terms)
            or any(c.ring != ring or Z.ring != ring
                   for c, (_, Z) in zip(coeffs, linear))):
        raise RingMismatchError("relation of derivations on different rings")
    n = len(ring.vars)
    brackets, products, tops = [], [], [(0,) * n]
    for s, X, Y in terms:
        D_X, _, top_X, _ = X._scaled_action()
        D_Y, _, top_Y, _ = Y._scaled_action()
        brackets.append((s, X, Y, D_X * D_Y))
        tops.append(map(add, top_X, top_Y))
    for c, (_, Z) in zip(coeffs, linear):
        d_c, (t_c,) = _int_form([c])
        D_Z, _, top_Z, _ = Z._scaled_action()
        products.append((t_c, Z, d_c * D_Z))
        tops.append(map(add, _top(t_c, n), top_Z))
    # field i is as wide as the widest of every term's two tops at i
    layout = _layout(map(max, zip(*tops)))
    L = lcm(*(t[-1] for t in brackets + products))
    halves = [(s * (L // d), X._packed(layout), Y._packed(layout))
              for s, X, Y, d in brackets if s]
    products = [(L // d, _pack(t_c, layout), Z._packed(layout)[0])
                for t_c, Z, d in products if t_c]
    action = {}
    for v in ring.names:
        acc = {}
        for f, (px, ix), (py, iy) in halves:
            if v in py:
                _leibniz(acc, py[v], ix, f)
            if v in px:
                _leibniz(acc, px[v], iy, -f)
        for f, pc, pz in products:
            if v in pz:
                _mul_into(acc, pc, pz[v], f)
        if acc:
            q = _unscaled(ring, acc, L, layout)
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


def verify_bracket_relation(rel: BracketRelation):
    """Check one bracket identity; returns (ok, residual derivation)."""
    res = rel.residual()
    return res.is_zero(), res


def verify_pushforward(d_up: Derivation, pmap: PolyMap, d_down) -> tuple[bool, dict]:
    """Check that d_up projects onto d_down along the polynomial map.

    For every component s of the map: d_up(p_s) must equal the pullback of
    d_down(lambda_s).  Passing d_down=None asserts d_up annihilates every
    component.  Checking on the target generators suffices because both sides
    are derivations.

    Both sides are compared as integer forms acc / d (``_same_quotient``);
    only a failing component is turned into the polynomial difference.
    """
    failures = {}
    ring, zero = pmap.source, ({}, 1, ())
    for vname, comp in pmap.components.items():
        lhs = d_up._applied(comp)
        rhs = zero if d_down is None else pmap._pulled_back(d_down.on(vname))
        if not _same_quotient(lhs, rhs):
            failures[vname] = _unscaled(ring, *lhs) - _unscaled(ring, *rhs)
    return not failures, failures


class LadderError(ValueError):
    """Raised when ladder completion cannot produce a consistent field."""


def ladder_complete(
    name: str,
    seeds: Mapping,
    partner: Derivation,
    rhs: Derivation,
    ladder: Sequence[tuple],
    weight=None,
    check_vars: Sequence[str] | None = None,
) -> Derivation:
    """Reconstruct the unique field D with the given seed values satisfying
    [partner, D] = rhs.

    ``ladder`` lists pairs (src, dst) with partner(src) = dst as variables;
    each step forces D(dst) = partner(D(src)) - rhs(src).  After the walk the
    commutator identity is re-checked on ``check_vars`` (default: all ring
    variables); any residual means the seeds are inconsistent with rhs.
    """
    ring = partner.ring
    action: dict[str, Poly] = {}
    for key, p in seeds.items():
        vname = key if isinstance(key, str) else key.name
        ring.index(vname)
        if not isinstance(p, Poly):
            p = ring.const(p)
        action[vname] = p
    for src, dst in ladder:
        src = src if isinstance(src, str) else src.name
        dst = dst if isinstance(dst, str) else dst.name
        if src not in action:
            raise LadderError(f"ladder reaches {dst} before {src} is known")
        if partner.on(src) != ring.var(dst):
            raise LadderError(f"partner does not map {src} to {dst}")
        action[dst] = partner.apply(action[src]) - rhs.on(src)
    result = Derivation(name, ring, action, weight=weight)
    residual = BracketRelation(partner, result, [(1, rhs)]).residual()
    for vname in check_vars if check_vars is not None else ring.names:
        q = residual.on(vname)
        if not q.is_zero():
            raise LadderError(
                f"inconsistent seeds: commutator residual on {vname}: {q.to_text()}"
            )
    return result
