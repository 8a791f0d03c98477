"""Sparse multivariate polynomials over exact rationals, with graded variables.

Every variable carries a non-negative integer weight; a monomial's weight is
the weight-sum of its variables.  Coefficients are exact rationals, stored as
``int`` when integral and :class:`fractions.Fraction` otherwise, so identity
checks are structural equality with zero tolerance.

A ``Poly`` maps exponent tuples (one slot per ring variable) to coefficients.
The zero polynomial has no terms.  All values are immutable after
construction; operations never mutate their arguments.

Also provided: polynomial matrices with a fraction-free Bareiss determinant
and a division-free minor-expansion determinant, exact division, and the
Sylvester-matrix resultant.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

class RingMismatchError(ValueError):
    """Raised when an operation mixes polynomials from different rings."""


def _coeff(value) -> "int | Fraction":
    """Coerce to an exact rational, normalising integral Fractions to int."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"coefficient must be int or Fraction, got {type(value).__name__}")


class GradedVar(NamedTuple):
    """A named variable with a non-negative integer weight."""

    name: str
    weight: int


class Ring:
    """An ordered collection of graded variables; the context for all polys."""

    __slots__ = ("vars", "names", "weights", "_index", "_zero_exps")

    def __init__(self, variables: Iterable):
        vs = []
        for v in variables:
            if isinstance(v, GradedVar):
                vs.append(v)
            else:
                name, weight = v
                vs.append(GradedVar(str(name), int(weight)))
        names = tuple(v.name for v in vs)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in ring")
        for v in vs:
            if v.weight < 0:
                raise ValueError(f"negative weight for {v.name}")
        self.vars = tuple(vs)
        self.names = names
        self.weights = tuple(v.weight for v in vs)
        self._index = {n: i for i, n in enumerate(names)}
        self._zero_exps = (0,) * len(vs)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"Ring({', '.join(f'{v.name}:{v.weight}' for v in self.vars)})"

    def index(self, var) -> int:
        name = var.name if isinstance(var, GradedVar) else var
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"variable {name!r} not in ring") from None

    def var(self, name: str) -> "Poly":
        exps = [0] * len(self.vars)
        exps[self.index(name)] = 1
        return Poly(self, {tuple(exps): 1}, _normalized=True)

    def const(self, value) -> "Poly":
        c = _coeff(Fraction(value) if not isinstance(value, (int, Fraction)) else value)
        if c == 0:
            return Poly(self, {}, _normalized=True)
        return Poly(self, {self._zero_exps: c}, _normalized=True)

    @property
    def zero(self) -> "Poly":
        return Poly(self, {}, _normalized=True)

    @property
    def one(self) -> "Poly":
        return self.const(1)

    def monomial_weight(self, exps: Sequence[int]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights) if e)

    def poly(self, terms: Mapping) -> "Poly":
        """Build a polynomial from {exponent tuple: coefficient}."""
        return Poly(self, dict(terms))

    def parse(self, text: str) -> "Poly":
        return _parse(self, text)


def _same_ring(a: "Poly", b: "Poly"):
    if a.ring is not b.ring and a.ring != b.ring:
        raise RingMismatchError("polynomials belong to different rings")


class Poly:
    """Immutable sparse polynomial: {exponent tuple -> nonzero coefficient}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping, *, _normalized=False):
        self.ring = ring
        if _normalized:
            self.terms = dict(terms)
            return
        n = len(ring.vars)
        clean = {}
        for exps, c in terms.items():
            c = _coeff(c)
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            clean[exps] = c
        self.terms = clean

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            _same_ring(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = _coeff(s)
            else:
                out.pop(m, None)
        return Poly(self.ring, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()}, _normalized=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if c == 0:
                return self.ring.zero
            return Poly(
                self.ring,
                {m: _coeff(v * c) for m, v in self.terms.items()},
                _normalized=True,
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        add = operator.add
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(map(add, ma, mb))
                prev = get(m)
                out[m] = ca * cb if prev is None else prev + ca * cb
        return Poly(
            self.ring,
            {m: _coeff(c) for m, c in out.items() if c},
            _normalized=True,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and substitution ----------------------------------------

    def partial(self, var) -> "Poly":
        """Formal partial derivative with respect to one ring variable."""
        i = self.ring.index(var)
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if not e:
                continue
            dm = m[:i] + (e - 1,) + m[i + 1 :]
            prev = out.get(dm, 0)
            s = prev + c * e
            if s:
                out[dm] = _coeff(s)
            else:
                out.pop(dm, None)
        return Poly(self.ring, out, _normalized=True)

    def substitute(
        self,
        assignment: Mapping,
        target: Ring | None = None,
        pow_cache: dict | None = None,
    ) -> "Poly":
        """Substitute polynomials (or rationals) for variables.

        Unassigned variables pass through unchanged, looked up by name in the
        target ring (the ring of the assigned values, or this ring if the
        assignment is purely numeric).

        One integer pass over packed monomials: this polynomial is put over
        its common denominator d and each image y_i over its own d_i.  With
        E_i the largest exponent of x_i here, every term c*x^m adds
        c * prod_i d_i^(E_i - m_i) * y_i^m_i into one dict of ints, which is
        divided once by d * prod_i d_i^E_i.  Target field j is as wide as
        sum_i E_i * top_j(y_i) needs, top_j the largest exponent of that
        variable, so no power or product carries into the next field.

        ``pow_cache`` is a dict the caller keeps for one fixed assignment
        (``PolyMap`` keeps one per map).  It memoises the packed powers
        y_i^e, keyed (i, e), of a single layout: an argument that needs
        wider fields empties it and starts a layout wide enough for both.
        So it never holds more than one layout's powers, and is emptied at
        most once per bit any field gains.
        """
        return _unscaled(*self._substituted(assignment, target, pow_cache))

    def _substituted(self, assignment: Mapping, target, pow_cache) -> tuple:
        """(target, acc, d, layout): ``substitute``'s result is acc / d in
        ``target``, with its keys packed in ``layout``."""
        images = {}
        for key, val in assignment.items():
            i = self.ring.index(key)
            if isinstance(val, Poly):
                if target is None:
                    target = val.ring
                elif target != val.ring:
                    raise RingMismatchError("assignment values from different rings")
            images[i] = val
        if target is None:
            target = self.ring
        d, (terms,) = _int_form([self])
        if not terms:
            return target, {}, 1, ()
        n = len(target.vars)
        top = _top(terms, len(self.ring.vars))
        forms = {}  # i -> (d_i, integer terms of d_i * y_i) for every x_i used
        bounds = [0] * n
        for i, E in enumerate(top):
            if E:
                y = images.get(i)
                if y is None:
                    y = target.var(self.ring.names[i])
                elif not isinstance(y, Poly):
                    y = target.const(y)
                d_i, (t,) = _int_form([y])
                forms[i] = (d_i, t)
                bounds = [b + E * e for b, e in zip(bounds, _top(t, n))]
                d *= d_i ** E

        if pow_cache is None:
            pow_cache = {}
        layout = next(iter(pow_cache), None)
        if layout is None or any(b > mask for b, (_, mask) in zip(bounds, layout)):
            if layout is not None:
                bounds = map(max, bounds, (mask for _, mask in layout))
            pow_cache.clear()
            layout = _layout(bounds)
            pow_cache[layout] = {}
        powers = pow_cache[layout]

        def power(i, e):
            p = powers.get((i, e))
            if p is None:
                if e == 1:
                    p = _pack(forms[i][1], layout)
                else:
                    h = power(i, e >> 1)
                    p = _mul_into({}, h, h)
                    if e & 1:
                        p = _mul_into({}, p, power(i, 1))
                    p = {k: c for k, c in p.items() if c}
                powers[i, e] = p
            return p

        dpow = {i: [d_i ** k for k in range(top[i] + 1)]
                for i, (d_i, _) in forms.items() if d_i != 1}
        acc = {}
        for m, c in terms.items():
            for i, pw in dpow.items():
                c *= pw[top[i] - m[i]]
            # the largest power last, so it is read once, into acc
            *rest, last = sorted(
                (power(i, e) for i, e in enumerate(m) if e), key=len) or [{0: 1}]
            prod = {0: 1}
            for p in rest:
                prod = _mul_into({}, prod, p)
            _mul_into(acc, prod, last, c)
        return target, acc, d, layout

    def evaluate(self, point: Mapping) -> "int | Fraction":
        """Evaluate at a full numeric assignment {name: rational}."""
        vals = []
        for name in self.ring.names:
            if name not in point:
                raise KeyError(f"no value for variable {name!r}")
            vals.append(point[name])
        total = Fraction(0)
        for m, c in self.terms.items():
            t = Fraction(c)
            for v, e in zip(vals, m):
                if e:
                    t *= Fraction(v) ** e
            total += t
        return _coeff(total)

    # -- grading -----------------------------------------------------------

    def weight_check(self) -> "int | None":
        """Common weight of all terms; None if inhomogeneous; 0 for zero."""
        w = None
        for m in self.terms:
            mw = self.ring.monomial_weight(m)
            if w is None:
                w = mw
            elif mw != w:
                return None
        return 0 if w is None else w

    def is_homogeneous_of(self, weight: int) -> bool:
        """True when every term has the given weight (zero poly passes)."""
        return all(self.ring.monomial_weight(m) == weight for m in self.terms)

    def max_total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def degree_in(self, var) -> int:
        i = self.ring.index(var)
        return max((m[i] for m in self.terms), default=0)

    def coeffs_in(self, var) -> dict[int, "Poly"]:
        """Split into {exponent of var: polynomial coefficient} (var removed)."""
        i = self.ring.index(var)
        buckets: dict[int, dict] = {}
        for m, c in self.terms.items():
            e = m[i]
            rest = m[:i] + (0,) + m[i + 1 :]
            buckets.setdefault(e, {})[rest] = c
        return {
            e: Poly(self.ring, t, _normalized=True) for e, t in sorted(buckets.items())
        }

    def variables_used(self) -> set[str]:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.ring.names[i])
        return used

    def constant_value(self) -> "int | Fraction":
        """The value of a constant polynomial; raises if non-constant."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            if not any(m):
                return c
        raise ValueError("polynomial is not constant")

    # -- serialization -----------------------------------------------------

    def _sorted_terms(self):
        ring = self.ring

        def key(item):
            m, _ = item
            named = tuple(
                (ring.names[i], e) for i, e in enumerate(m) if e
            )
            return (ring.monomial_weight(m), tuple(sorted(named)))

        return sorted(self.terms.items(), key=key)

    def to_text(self) -> str:
        """Canonical text form, e.g. ``-4/3*l4^3 + 6*l6``."""
        if not self.terms:
            return "0"
        parts = []
        for m, c in self._sorted_terms():
            factors = [
                f"{self.ring.names[i]}^{e}" if e > 1 else self.ring.names[i]
                for i, e in enumerate(m)
                if e
            ]
            mono = "*".join(factors)
            if not mono:
                chunk = str(c)
            elif c == 1:
                chunk = mono
            elif c == -1:
                chunk = "-" + mono
            else:
                chunk = f"{c}*{mono}"
            parts.append(chunk)
        out = parts[0]
        for chunk in parts[1:]:
            if chunk.startswith("-"):
                out += " - " + chunk[1:]
            else:
                out += " + " + chunk
        return out

    __str__ = to_text

    def __repr__(self):
        return f"Poly({self.to_text()})"

    def to_json_obj(self) -> dict:
        terms = []
        for m, c in self._sorted_terms():
            mono = {
                self.ring.names[i]: e for i, e in enumerate(m) if e
            }
            terms.append({"c": str(c), "m": mono})
        return {"terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_json_obj(ring: Ring, obj: Mapping) -> "Poly":
        out = {}
        for t in obj["terms"]:
            exps = [0] * len(ring.vars)
            for name, e in t["m"].items():
                exps[ring.index(name)] = int(e)
            out[tuple(exps)] = _coeff(Fraction(t["c"]))
        return Poly(ring, out)


def cast(p: Poly, target: Ring) -> Poly:
    """Re-express a polynomial in another ring containing its variables."""
    if p.ring == target:
        return p
    mapping = []
    for i, name in enumerate(p.ring.names):
        mapping.append(target._index.get(name, -1))
    n = len(target.vars)
    out = {}
    for m, c in p.terms.items():
        exps = [0] * n
        for i, e in enumerate(m):
            if e:
                j = mapping[i]
                if j < 0:
                    raise KeyError(
                        f"variable {p.ring.names[i]!r} absent from target ring"
                    )
                exps[j] = e
        out[tuple(exps)] = c
    return Poly(target, out, _normalized=True)


# -- parsing ---------------------------------------------------------------


class _Parser:
    """Recursive-descent parser for the canonical text form, with parentheses."""

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text):
        tokens = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*^()":
                tokens.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                num = int(text[i:j])
                # rational literal a/b
                if j < n and text[j] == "/":
                    k = j + 1
                    m = k
                    while m < n and text[m].isdigit():
                        m += 1
                    if m == k:
                        raise ValueError("expected denominator after '/'")
                    tokens.append(Fraction(num, int(text[k:m])))
                    i = m
                else:
                    tokens.append(num)
                    i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(("name", text[i:j]))
                i = j
            else:
                raise ValueError(f"unexpected character {ch!r}")
        return tokens

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self) -> Poly:
        tok = self.peek()
        negate = False
        if tok in ("+", "-"):
            self.take()
            negate = tok == "-"
        p = self.term()
        if negate:
            p = -p
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p - q if op == "-" else p + q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek() == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        tok = self.take()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
        elif tok == "-":
            return -self.factor()
        elif isinstance(tok, (int, Fraction)):
            p = self.ring.const(tok)
        elif isinstance(tok, tuple) and tok[0] == "name":
            p = self.ring.var(tok[1])
        else:
            raise ValueError(f"unexpected token {tok!r}")
        while self.peek() == "^":
            self.take()
            e = self.take()
            if not isinstance(e, int):
                raise ValueError("exponent must be an integer")
            p = p**e
        return p


def _parse(ring: Ring, text: str) -> Poly:
    return _Parser(ring, text).parse()


# -- exact division ----------------------------------------------------------


def divexact(p: Poly, d: Poly) -> Poly:
    """Exact division p/d in the polynomial ring; raises if not divisible.

    Terms are ordered by (weight, exponent tuple), largest first.  With
    non-negative weights this is a monomial order (1 is least, products
    keep the order), so each step cancels the leading term of the remainder
    and the division ends.  It raises ``ValueError`` as soon as that leading
    term is not a multiple of d's leading term.

    The leading term comes off a min-heap keyed by (-weight, negated
    exponents).  A monomial is pushed once when it enters the remainder,
    with its weight computed from the quotient term's weight plus a
    precomputed offset weight(m2) - weight(lead d).  A monomial whose
    coefficient cancels stays in the heap and is skipped when it is popped
    (lazy deletion).  Each entry of a monomial into the remainder costs one
    push and one pop, so a division with n entries costs O(n log n), not
    the O(n^2) of scanning the whole remainder for its maximum at every
    step.
    """
    _same_ring(p, d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return p.ring.zero
    ring = p.ring
    weight = ring.monomial_weight
    dm = max(d.terms, key=lambda m: (weight(m), m))
    dc = Fraction(d.terms[dm])
    dw = weight(dm)
    tail = [(m2, c2, weight(m2) - dw) for m2, c2 in d.terms.items() if m2 != dm]
    rem = dict(p.terms)
    heap = [(-weight(m), tuple(-e for e in m)) for m in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        negw, negm = heapq.heappop(heap)
        rm = tuple(-e for e in negm)
        rc = rem.pop(rm, 0)
        if not rc:
            continue  # cancelled after it was pushed
        qm = tuple(a - b for a, b in zip(rm, dm))
        if any(e < 0 for e in qm):
            raise ValueError("polynomials do not divide exactly")
        qc = _coeff(rc / dc)
        out[qm] = qc
        for m2, c2, offset in tail:
            k = tuple(a + b for a, b in zip(qm, m2))
            prev = rem.get(k)
            if prev is None:
                rem[k] = -qc * c2
                heapq.heappush(heap, (negw - offset, tuple(-e for e in k)))
            else:
                s = prev - qc * c2
                if s:
                    rem[k] = s
                else:
                    del rem[k]
    return Poly(ring, out, _normalized=True)


# -- matrices ----------------------------------------------------------------


class PolyMatrix:
    """A rectangular grid of polynomials from one ring."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: Ring, rows: Sequence[Sequence[Poly]]):
        self.ring = ring
        self.rows = tuple(tuple(row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")
            for p in row:
                if p.ring != ring:
                    raise RingMismatchError("matrix entry from another ring")

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def evaluate(self, point: Mapping) -> list[list]:
        return [[p.evaluate(point) for p in row] for row in self.rows]

    def map(self, fn) -> "PolyMatrix":
        rows = [[fn(p) for p in row] for row in self.rows]
        ring = rows[0][0].ring if rows and rows[0] else self.ring
        return PolyMatrix(ring, rows)


def _int_form(polys: Iterable[Poly]) -> tuple[int, list[dict]]:
    """(d, ints): d the lcm of every coefficient denominator of ``polys`` and
    ints[j] the terms of polys[j] times d as Python ints.  When d is 1 the
    term dicts themselves are returned, so they must not be mutated."""
    polys = list(polys)
    d = math.lcm(*(c.denominator for p in polys for c in p.terms.values()
                   if type(c) is not int))
    if d == 1:
        return 1, [p.terms for p in polys]
    return d, [
        {m: c * d if type(c) is int else c.numerator * (d // c.denominator)
         for m, c in p.terms.items()}
        for p in polys
    ]


def _layout(bounds: Iterable[int]) -> tuple:
    """Packed-monomial layout: (shift, mask) per variable, one bit field each,
    as wide as that variable's bound needs.  Exponent vectors whose sum stays
    within the bounds add as packed integers and never carry from one field
    into the next (Monagan & Pearce, CASC 2007)."""
    fields = []
    shift = 0
    for b in bounds:
        width = b.bit_length()
        fields.append((shift, (1 << width) - 1))
        shift += width
    return tuple(fields)


def _pack(terms: Mapping, layout: tuple) -> dict:
    """``terms`` with every exponent tuple packed into one int."""
    units = [1 << s for s, _ in layout]
    return {sum(map(operator.mul, m, units)): c for m, c in terms.items()}


def _unpack(packed: Mapping, layout: tuple) -> dict:
    """The nonzero terms of ``packed`` keyed by exponent tuples again."""
    return {tuple([(key >> s) & mask for s, mask in layout]): c
            for key, c in packed.items() if c}


def _top(terms: Iterable, n: int) -> tuple:
    """The largest exponent of each of the n variables over ``terms``."""
    monos = list(terms)
    return tuple(map(max, zip(*monos))) if monos else (0,) * n


def _mul_into(acc: dict, a: Mapping, b: Mapping, f: int = 1) -> dict:
    """acc += f * a * b on packed terms; returns acc."""
    get = acc.get
    for ka, ca in a.items():
        fa = f * ca
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + fa * cb
    return acc


def _unscaled(ring: Ring, acc: Mapping, d: int, layout: tuple) -> Poly:
    """The polynomial acc / d, zero terms dropped and keys unpacked."""
    terms = _unpack(acc, layout)
    if d != 1:
        terms = {m: _coeff(Fraction(c, d)) for m, c in terms.items()}
    return Poly(ring, terms, _normalized=True)


def _same_quotient(a: tuple, b: tuple) -> bool:
    """Whether acc_a / d_a == acc_b / d_b for two (acc, d, layout) forms,
    whatever their layouts, decided on integers: no ``Fraction`` is built."""
    (acc_a, d_a, layout_a), (acc_b, d_b, layout_b) = a, b
    if not acc_b:
        return not any(acc_a.values())
    terms_a, terms_b = _unpack(acc_a, layout_a), _unpack(acc_b, layout_b)
    return terms_a.keys() == terms_b.keys() and all(
        c * d_b == terms_b[m] * d_a for m, c in terms_a.items())


def det_bareiss(matrix: PolyMatrix) -> Poly:
    """Fraction-free Bareiss determinant over the polynomial ring.

    Rows are scaled to integer coefficients first and the scalar restored at
    the end, so the elimination runs entirely over integer-coefficient
    polynomials where every division is exact.
    """
    if not matrix.is_square:
        raise ValueError("determinant requires a square matrix")
    n = matrix.nrows
    ring = matrix.ring
    if n == 0:
        return ring.one
    scaled = [_int_form(row) for row in matrix.rows]
    work = [
        [Poly(ring, t, _normalized=True) for t in row] for _, row in scaled
    ]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        pivot_row = k
        while pivot_row < n and work[pivot_row][k].is_zero():
            pivot_row += 1
        if pivot_row == n:
            return ring.zero
        if pivot_row != k:
            work[pivot_row], work[k] = work[k], work[pivot_row]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * work[i][j] - work[i][k] * work[k][j]
                work[i][j] = divexact(num, prev)
            work[i][k] = ring.zero
        prev = pivot
    det = work[n - 1][n - 1]
    return det * Fraction(sign, math.prod(d for d, _ in scaled))


def det_minor_expansion(matrix: PolyMatrix) -> Poly:
    """Division-free determinant by dynamic programming over column subsets.

    Intermediate minors never require polynomial division, which keeps the
    cost dominated by small-entry-times-minor products.  Monomials are packed
    into single integers during the sweep, one bit field per variable, wide
    enough for that variable's exponent in any minor: the sum over rows of
    the row's largest exponent.  So no field carries into the next.
    """
    if not matrix.is_square:
        raise ValueError("determinant requires a square matrix")
    n = matrix.nrows
    ring = matrix.ring
    if n == 0:
        return ring.one
    scaled = [_int_form(row) for row in matrix.rows]
    layout = _layout(
        sum(max((m[i] for t in row for m in t), default=0) for _, row in scaled)
        for i in range(len(ring.vars))
    )
    ents = [[_pack(t, layout) for t in row] for _, row in scaled]

    masks_by_count = [[] for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        masks_by_count[bin(mask).count("1")].append(mask)

    # Nonzero minors only.  Masks run in increasing order, so the last
    # superset of a lower-level minor is the one with every higher column
    # set: mask pops mask ^ bit for each bit above its highest unset column.
    full = (1 << n) - 1
    prev_level = {0: {0: 1}}
    for r in range(1, n + 1):
        row = ents[r - 1]
        cur_level = {}
        get_minor, pop_minor = prev_level.get, prev_level.pop
        row_sign = 1 if (r - 1) % 2 == 0 else -1
        for mask in masks_by_count[r]:
            acc: dict[int, int] = {}
            get = acc.get
            sign = row_sign
            last_use = 1 << (full ^ mask).bit_length()
            rem = mask
            while rem:
                bit = rem & -rem
                j = bit.bit_length() - 1
                rem ^= bit
                e = row[j]
                if bit >= last_use:
                    sub = pop_minor(mask ^ bit, None)
                else:
                    sub = get_minor(mask ^ bit) if e else None
                if e and sub:
                    if sign > 0:
                        for me, ce in e.items():
                            for ms, cs in sub.items():
                                k = me + ms
                                v = get(k)
                                acc[k] = ce * cs if v is None else v + ce * cs
                    else:
                        for me, ce in e.items():
                            for ms, cs in sub.items():
                                k = me + ms
                                v = get(k)
                                acc[k] = -ce * cs if v is None else v - ce * cs
                sign = -sign
            minor = {k: v for k, v in acc.items() if v}
            if minor:
                cur_level[mask] = minor
        prev_level = cur_level

    poly = Poly(ring, _unpack(prev_level.get(full, {}), layout), _normalized=True)
    return poly * Fraction(1, math.prod(d for d, _ in scaled))


def det_cofactor(matrix: PolyMatrix) -> Poly:
    """Naive recursive cofactor expansion along the first row (oracle use)."""
    if not matrix.is_square:
        raise ValueError("determinant requires a square matrix")
    ring = matrix.ring

    def rec(rows):
        n = len(rows)
        if n == 0:
            return ring.one
        if n == 1:
            return rows[0][0]
        total = ring.zero
        first = rows[0]
        rest = rows[1:]
        for j, a in enumerate(first):
            if a.is_zero():
                continue
            sub = [row[:j] + row[j + 1 :] for row in rest]
            term = a * rec(sub)
            total = total + term if j % 2 == 0 else total - term
        return total

    return rec([list(r) for r in matrix.rows])


def sylvester_matrix(f: Poly, h: Poly, var) -> PolyMatrix:
    """The Sylvester matrix of f and h with respect to one variable.

    Rows built from f's coefficients come first; this fixes the sign
    convention of the resultant.
    """
    _same_ring(f, h)
    if f.is_zero() or h.is_zero():
        raise ValueError("resultant of zero polynomial")
    ring = f.ring
    i = ring.index(var)
    fc = f.coeffs_in(var)
    hc = h.coeffs_in(var)
    m = max(fc)
    n = max(hc)
    if m < 1 or n < 1:
        raise ValueError("both polynomials must have positive degree in var")
    size = m + n
    zero = ring.zero
    rows = []
    for r in range(n):
        row = [zero] * size
        for k in range(m + 1):
            row[r + k] = fc.get(m - k, zero)
        rows.append(row)
    for r in range(m):
        row = [zero] * size
        for k in range(n + 1):
            row[r + k] = hc.get(n - k, zero)
        rows.append(row)
    return PolyMatrix(ring, rows)


def resultant(f: Poly, h: Poly, var) -> Poly:
    """Resultant of f and h with respect to var (Sylvester determinant)."""
    return det_bareiss(sylvester_matrix(f, h, var))


# -- named polynomial maps ----------------------------------------------------


class PolyMap:
    """A named polynomial map: ordered components {target variable: Poly}.

    ``_pow_cache`` is ``Poly.substitute``'s memo of the packed integer
    powers of the components, in one layout, shared by every pullback.  It
    lives as long as the map, because the map never changes, and is bounded:
    it holds one entry per (component, exponent) that some pullback used,
    plus the halving powers that built it, and starts again when a pullback
    needs a wider layout.
    """

    __slots__ = ("name", "source", "target", "components", "_pow_cache")

    def __init__(self, name: str, source: Ring, target: Ring, components: Mapping):
        self.name = name
        self.source = source
        self.target = target
        comps = {}
        for key, p in components.items():
            vname = key.name if isinstance(key, GradedVar) else key
            target.index(vname)
            if p.ring != source:
                raise RingMismatchError(f"component {vname} not in source ring")
            comps[vname] = p
        self.components = comps
        self._pow_cache = {}

    def pullback(self, p: Poly) -> Poly:
        """Compose: substitute this map's components into a target-ring poly."""
        if p.ring != self.target:
            raise RingMismatchError("pullback argument not in target ring")
        return p.substitute(self.components, target=self.source,
                            pow_cache=self._pow_cache)

    def _pulled_back(self, p: Poly) -> tuple:
        """(acc, d, layout): ``pullback(p)`` is acc / d, keys packed in layout."""
        if p.ring != self.target:
            raise RingMismatchError("pullback argument not in target ring")
        return p._substituted(self.components, self.source, self._pow_cache)[1:]

    def evaluate(self, point: Mapping) -> dict:
        return {v: comp.evaluate(point) for v, comp in self.components.items()}

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "components": [
                {"var": v, "poly": p.to_json_obj()} for v, p in self.components.items()
            ],
        }
