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

``bracket_sum`` computes sum s * [X, Y] over its terms in one such pass: it
puts every term over the common denominator lcm(D_X * D_Y), and for each
variable v accumulates both halves X(Y(v)) - Y(X(v)) of every term into one
dict.  ``Derivation.bracket`` is its one-term case.

``ladder_complete`` reconstructs a field from its values on a set of seed
variables plus a prescribed commutator with a partner field, walking a chain
of variables v -> partner(v).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .exactpoly import (
    Poly, PolyMap, Ring, RingMismatchError, _coeff, _int_form, _layout, _pack,
    _unpack,
)


def _top(terms: Iterable, n: int) -> tuple:
    """The largest exponent of each of the n variables over ``terms``."""
    monos = list(terms)
    return tuple(map(max, zip(*monos))) if monos else (0,) * n


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


def _unscaled(ring: Ring, acc: dict, d: int, layout: tuple) -> Poly:
    """The polynomial acc / d, zero terms dropped and keys unpacked."""
    terms = _unpack(acc, layout)
    if d != 1:
        terms = {m: _coeff(Fraction(c, d)) for m, c in terms.items()}
    return Poly(ring, terms, _normalized=True)


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
        return _unscaled(self.ring, acc, d * D, layout)

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


def bracket_sum(terms: Sequence, name: str = "bracket_sum", weight=None) -> Derivation:
    """sum s * [X, Y] over the (s, X, Y) of ``terms``, s an int, in one
    integer pass: no intermediate bracket, sum or ``Fraction`` is built."""
    ring = terms[0][1].ring
    if any(X.ring != ring or Y.ring != ring for _, X, Y in terms):
        raise RingMismatchError("bracket of derivations on different rings")
    dens, tops = [], []
    for _, X, Y in terms:
        D_X, _, top_X, _ = X._scaled_action()
        D_Y, _, top_Y, _ = Y._scaled_action()
        dens.append(D_X * D_Y)
        tops.append(map(add, top_X, top_Y))
    # field i is as wide as the widest top_X[i] + top_Y[i] over the terms
    layout = _layout(map(max, zip(*tops)))
    L = lcm(*dens)
    halves = [(s * (L // d), X._packed(layout), Y._packed(layout))
              for (s, X, Y), d in zip(terms, dens) if s]
    action = {}
    for v in ring.names:
        acc = {}
        for f, (px, ix), (py, iy) in halves:
            if v in py:
                _leibniz(acc, py[v], ix, f)
            if v in px:
                _leibniz(acc, px[v], iy, -f)
        if acc:
            q = _unscaled(ring, acc, L, layout)
            if not q.is_zero():
                action[v] = q
    return Derivation(name, ring, action, weight=weight)


def combination(terms: Sequence, ring: Ring, name: str = "comb") -> Derivation:
    """Module combination sum(coeff * field) as a single derivation."""
    action: dict[str, Poly] = {}
    for coeff, field in terms:
        if not isinstance(coeff, Poly):
            coeff = ring.const(coeff)
        for vname, p in field.action.items():
            q = action.get(vname, ring.zero) + coeff * p
            if q.is_zero():
                action.pop(vname, None)
            else:
                action[vname] = q
    return Derivation(name, ring, action)


class BracketRelation:
    """A claimed identity [left, right] = sum of coeff * field."""

    __slots__ = ("left", "right", "expansion", "label")

    def __init__(self, left: Derivation, right: Derivation, expansion, label=None):
        self.left = left
        self.right = right
        self.expansion = list(expansion)
        self.label = label or f"[{left.name},{right.name}]"

    def residual(self) -> Derivation:
        """bracket(left, right) minus the claimed expansion (zero iff it holds)."""
        ring = self.left.ring
        return self.left.bracket(self.right) - combination(self.expansion, ring)


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
    """
    failures = {}
    for vname, comp in pmap.components.items():
        lhs = d_up.apply(comp)
        if d_down is None:
            rhs = pmap.source.zero
        else:
            rhs = pmap.pullback(d_down.on(vname))
        diff = lhs - rhs
        if not diff.is_zero():
            failures[vname] = diff
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
    residual = partner.bracket(result) - rhs
    for vname in check_vars if check_vars is not None else ring.names:
        q = residual.on(vname)
        if not q.is_zero():
            raise LadderError(
                f"inconsistent seeds: commutator residual on {vname}: {q.to_text()}"
            )
    return result
