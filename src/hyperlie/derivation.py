"""Polynomial vector fields as derivations of a graded polynomial ring.

A derivation is determined by its action on the ring variables; variables
absent from the action map are annihilated.  Application extends by the
Leibniz rule, and the commutator of two derivations is again a derivation.

``apply`` and ``bracket`` share one fused integer loop, ``_leibniz``.  The
argument's coefficients are put over their common denominator, and so are
the derivation's images (memoised per derivation in ``_scaled``, since its
action is never changed after construction).  For each term c*x^m and each
variable x_i with e = m_i > 0, c*e times every image term is added at the
shifted exponent m - e_i + k straight into one dict of Python ints.  The
result is divided by the product of the two denominators once at the end,
with coefficients normalised as ``Poly`` stores them.  The components of a
bracket ``self(other.on(v)) - other(self.on(v))`` share the denominator
D_self * D_other, so both halves accumulate into the same dict.

``ladder_complete`` reconstructs a field from its values on a set of seed
variables plus a prescribed commutator with a partner field, walking a chain
of variables v -> partner(v).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Mapping, Sequence

from .exactpoly import Poly, PolyMap, Ring, RingMismatchError, _coeff


def _int_form(p: Poly) -> tuple[int, dict]:
    """(d, ints) with p = ints / d: d the lcm of the coefficient denominators."""
    dens = [c.denominator for c in p.terms.values() if type(c) is not int]
    if not dens:
        return 1, p.terms
    d = lcm(*dens)
    return d, {m: c * d if type(c) is int else c.numerator * (d // c.denominator)
               for m, c in p.terms.items()}


def _leibniz(acc: dict, terms: Mapping, images, sign: int = 1):
    """acc += sign * sum_i images_i * d(terms)/dx_i, in integers.

    ``images`` lists (i, dec, image terms), dec the exponent tuple -e_i, so
    m + dec + k is the exponent of a product term.
    """
    get = acc.get
    for m, c in terms.items():
        for i, dec, img in images:
            e = m[i]
            if e:
                ce = sign * c * e
                base = tuple(map(add, m, dec))
                for k, ci in img.items():
                    key = tuple(map(add, base, k))
                    acc[key] = get(key, 0) + ce * ci


def _unscaled(ring: Ring, acc: dict, d: int) -> Poly:
    """The polynomial acc / d, zero terms dropped."""
    terms = {m: c if d == 1 else _coeff(Fraction(c, d)) for m, c in acc.items() if c}
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
        """(D, {v: ints}, images): action[v] = ints / D for one common D, and
        the ``_leibniz`` images of every acted-on variable."""
        if self._scaled is None:
            parts = {v: _int_form(p) for v, p in self.action.items()}
            D = lcm(*(d for d, _ in parts.values()))
            ints = {v: t if d == D else {m: c * (D // d) for m, c in t.items()}
                    for v, (d, t) in parts.items()}
            n = len(self.ring.vars)
            images = []
            for v, t in ints.items():
                i = self.ring.index(v)
                images.append((i, tuple(-(j == i) for j in range(n)), t))
            self._scaled = (D, ints, images)
        return self._scaled

    def __call__(self, p: Poly) -> Poly:
        return self.apply(p)

    def apply(self, p: Poly) -> Poly:
        """Leibniz-rule application: sum of action[v] * dp/dv."""
        if p.ring != self.ring:
            raise RingMismatchError("argument not in the derivation's ring")
        d, terms = _int_form(p)
        D, _, images = self._scaled_action()
        acc = {}
        _leibniz(acc, terms, images)
        return _unscaled(self.ring, acc, d * D)

    def on(self, var) -> Poly:
        """Action on a single variable (zero when absent)."""
        vname = var if isinstance(var, str) else var.name
        self.ring.index(vname)
        return self.action.get(vname, self.ring.zero)

    def bracket(self, other: "Derivation") -> "Derivation":
        """Commutator [self, other] as a derivation."""
        if self.ring != other.ring:
            raise RingMismatchError("bracket of derivations on different rings")
        ds, ints_s, images_s = self._scaled_action()
        do, ints_o, images_o = other._scaled_action()
        action = {}
        for vname in set(self.action) | set(other.action):
            acc = {}
            _leibniz(acc, ints_o.get(vname, {}), images_s)
            _leibniz(acc, ints_s.get(vname, {}), images_o, -1)
            q = _unscaled(self.ring, acc, ds * do)
            if not q.is_zero():
                action[vname] = q
        w = None
        if self.weight is not None and other.weight is not None:
            w = self.weight + other.weight
        return Derivation(f"[{self.name},{other.name}]", self.ring, action, weight=w)

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
        return self + other.scale(-1)

    def __neg__(self) -> "Derivation":
        return self.scale(-1)

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
