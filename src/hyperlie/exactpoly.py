"""Sparse multivariate polynomials over exact rationals, with graded variables.

Every variable carries a non-negative integer weight; a monomial's weight is
the weight-sum of its variables.  A ``Poly`` stores integer numerators over
one denominator, the content/primitive split of FLINT's ``fmpq_mpoly``:
``num`` maps monomial keys to nonzero ints and ``den`` is a positive int
with gcd(den, *num.values()) == 1.  So equal polynomials have equal forms,
identity checks are structural equality with zero tolerance, and every
kernel computes on ints alone.  A monomial key is one int in its ring's one
layout (Monagan & Pearce, CASC 2007): variable i owns bits
[32*i, 32*i + 32), so multiplying monomials is adding keys.  ``Ring.pack``
and ``Ring.unpack`` convert between keys and exponent tuples, and ``terms``
is the tuple-keyed rational view of the same polynomial, an ``int`` when a
coefficient is integral, for renderers and oracles.

The zero polynomial has no terms.  All values are immutable after
construction; operations never mutate their arguments.

Text reaches a ``Poly`` through ``Ring.parse`` alone: it walks Python's
``ast`` of the text under a small grammar, and names may read as values
from an environment, so displayed data written in auxiliary symbols parse
straight into the ring they are checked in.

Also provided: polynomial matrices with a division-free minor-expansion
determinant, which the runtime uses, and a fraction-free Bareiss determinant
and exact division, which the tests use as second algorithms.  Numeric
matrices have one exact eliminator, ``row_reduce`` (sparse, over Q): the
sampled determinants and ``solve_unique``'s linear solves call it.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, NamedTuple, Sequence

# Each variable owns one _WIDTH-bit field of a monomial key.  A stored
# exponent stays below 2^(_WIDTH - 1), so the top bit of every field is a
# guard: two keys add with no carry between fields, and a sum whose exponent
# reaches 2^(_WIDTH - 1) sets a guard bit, which ``_checked`` turns into
# OverflowError.  The width is 32, not the fewest bits the exponents need,
# because CPython hashes ints modulo 2^61 - 1: among the 205,173 monomials
# of the genus-3 det Tcal, 32-bit fields give 205,162 distinct hashes and
# 20-bit fields 43,499, and with 20-bit fields that determinant took about
# 1.5x as long.
_WIDTH = 32
_FIELD = (1 << _WIDTH) - 1  # the mask of one field

class RingMismatchError(ValueError):
    """Raised when an operation mixes polynomials from different rings."""


def _rational(n: int, d: int = 1) -> "int | Fraction":
    """n / d as an exact rational, an ``int`` when integral."""
    return n // d if n % d == 0 else Fraction(n, d)


class GradedVar(NamedTuple):
    """A named variable with a non-negative integer weight."""

    name: str
    weight: int


class Ring:
    """An ordered collection of graded variables; the context for all polys."""

    __slots__ = ("vars", "names", "weights", "_index", "_guard")

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
        # the top bit of every field: set in a key iff an exponent is too big
        self._guard = sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(len(vs)))

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

    def pack(self, exps: Sequence[int]) -> int:
        """The key of an exponent tuple, one field per ring variable.  A
        wrong length or a negative exponent raises ``ValueError``, and an
        exponent of 2^31 or more ``OverflowError``: it would spill into the
        next variable's field."""
        exps = tuple(exps)
        if len(exps) != len(self.vars) or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps}")
        if any(e >> (_WIDTH - 1) for e in exps):
            raise OverflowError(f"exponent of {exps} reaches 2^{_WIDTH - 1}")
        return sum(e << (_WIDTH * i) for i, e in enumerate(exps))

    def unpack(self, key: int) -> tuple:
        """The exponent tuple of a key; the inverse of ``pack``."""
        return tuple([(key >> s) & _FIELD
                      for s in range(0, _WIDTH * len(self.vars), _WIDTH)])

    def var(self, name: str) -> "Poly":
        return Poly._of(self, {1 << (_WIDTH * self.index(name)): 1})

    def const(self, value) -> "Poly":
        """The constant ``value``, which must be an ``int`` or ``Fraction``:
        nothing else is exact, so a ``float`` raises ``TypeError``."""
        value = _exact(value)
        return Poly._of(self, {0: value.numerator} if value else {}, value.denominator)

    @property
    def zero(self) -> "Poly":
        return Poly._of(self, {})

    @property
    def one(self) -> "Poly":
        return self.const(1)

    def key_weight(self, key: int) -> int:
        """The weight of the monomial whose key this is."""
        return sum(w * ((key >> (_WIDTH * i)) & _FIELD)
                   for i, w in enumerate(self.weights))

    def parse(self, text: str, env: Mapping | None = None) -> "Poly":
        """Read a polynomial of this ring from text.

        The grammar is Python's expression grammar cut down to ``+``, ``-``,
        ``*``, unary ``+``/``-``, parentheses, integer literals, ``a/b`` and
        ``^`` (power, binding tighter than unary minus: ``-x^2`` is -(x^2)).
        In ``a/b`` the divisor ``b`` is an integer literal and ``a``
        evaluates to an integer, so ``-4/3*l4^3`` reads as (-4/3)*l4^3.  The
        exponent of ``^`` is a non-negative integer literal.  A name reads
        as ``env[name]`` (a ``Poly`` of this ring or a rational) when ``env``
        has it, else as this ring's variable (``KeyError`` if there is none).
        Any other text raises ``ValueError``.
        """
        import ast  # lazy: commands that read no text do not load it

        arith = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}

        def literal(node):
            return isinstance(node, ast.Constant) and type(node.value) is int

        def read(node):
            if isinstance(node, ast.BinOp):
                op = type(node.op)
                if op in arith:
                    return arith[op](read(node.left), read(node.right))
                if op is ast.Div and literal(node.right) and node.right.value:
                    num = read(node.left)
                    if isinstance(num, (int, Fraction)) and num.denominator == 1:
                        return _rational(int(num), node.right.value)
                elif op is ast.Pow and literal(node.right):
                    return read(node.left) ** node.right.value
            elif isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
                v = read(node.operand)
                return -v if isinstance(node.op, ast.USub) else v
            elif literal(node):
                return node.value
            elif isinstance(node, ast.Name):
                if env is not None and node.id in env:
                    return env[node.id]
                return self.var(node.id)
            raise ValueError(f"cannot read {ast.unparse(node)!r} in {text!r}")

        if "**" in text:
            raise ValueError(f"write powers as '^' in {text!r}")
        try:
            tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
        except SyntaxError as exc:
            raise ValueError(f"cannot read {text!r}: {exc.msg}") from None
        out = read(tree.body)
        return out if isinstance(out, Poly) else self.const(out)


def _exact(c):
    """``c``, after raising ``TypeError`` unless it is an int or Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
    return c


def _checked(ring: Ring, terms: dict) -> dict:
    """``terms``, after raising ``OverflowError`` if an exponent of one of
    its keys has reached 2^31 (set its field's guard bit)."""
    if reduce(operator.or_, terms, 0) & ring._guard:
        raise OverflowError(f"an exponent reaches 2^{_WIDTH - 1}")
    return terms


def _same_ring(a: "Poly", b: "Poly"):
    if a.ring is not b.ring and a.ring != b.ring:
        raise RingMismatchError("polynomials belong to different rings")


class Poly:
    """Immutable sparse polynomial num / den: ``num`` maps monomial keys of
    the ring's layout to nonzero ints, ``den`` is a positive int, and no
    prime divides den and every numerator.  ``Poly(ring, terms)`` reads
    {exponent tuple: int or Fraction}; the kernels build through
    ``Poly._of``."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: Ring, terms: Mapping):
        clean = {ring.pack(exps): c for exps, c in terms.items() if _exact(c)}
        # over the lcm of reduced denominators no prime divides every numerator
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.ring = ring
        self.num = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self.den = den

    @classmethod
    def _of(cls, ring: Ring, num: dict, den: int = 1) -> "Poly":
        """The polynomial num / den, ``num`` nonzero ints (kept, not copied)
        and den > 0, with their common factor divided out.  The keys are
        not checked: a caller whose keys can gain an exponent goes through
        ``_unscaled`` or ``_checked``."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        self = object.__new__(cls)
        self.ring, self.num, self.den = ring, num, den
        return self

    @property
    def terms(self) -> dict:
        """{exponent tuple: rational coefficient}, a fresh dict."""
        d, unpack = self.den, self.ring.unpack
        return {unpack(m): _rational(c, d) for m, c in self.num.items()}

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.ring == other.ring and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        num = self.num
        if num.keys() <= {0}:  # a constant hashes as the value it equals
            return hash(_rational(num.get(0, 0), self.den))
        return hash((self.ring, self.den, frozenset(num.items())))

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
        a, b = self, other
        if len(a.num) < len(b.num):
            a, b = b, a  # copy the larger, walk the smaller
        den = a.den if a.den == b.den else math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        out = dict(a.num) if fa == 1 else {m: c * fa for m, c in a.num.items()}
        get = out.get
        for m, c in b.num.items():
            s = get(m, 0) + c * fb
            if s:
                out[m] = s
            else:
                del out[m]
        return Poly._of(self.ring, out, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.ring, {m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero
            c = other.numerator
            return Poly._of(self.ring, {m: v * c for m, v in self.num.items()},
                            self.den * other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if len(a) > len(b):
            a, b = b, a
        return _unscaled(self.ring, _mul_into({}, a, b), self.den * other.den)

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
        s = _WIDTH * self.ring.index(var)
        unit = 1 << s
        out = {}
        for m, c in self.num.items():
            e = (m >> s) & _FIELD
            if e:
                out[m - unit] = c * e
        return Poly._of(self.ring, out, self.den)

    def substitute(self, assignment: Mapping, target: Ring | None = None) -> "Poly":
        """Substitute polynomials (or ints and Fractions) for variables.

        Unassigned variables pass through unchanged, looked up by name in the
        target ring (the ring of the assigned values, or this ring if the
        assignment is purely numeric).

        One integer pass over monomial keys: this polynomial is num / d
        and each image y_i is its own num_i / d_i.  With E_i the largest
        exponent of x_i here, every term c*x^m adds
        c * prod_i d_i^(E_i - m_i) * y_i^m_i into one dict of ints, which is
        divided once by d * prod_i d_i^E_i.  The powers y_i^e live for this
        one call, and every power and partial product is checked for an
        exponent of 2^31 before it is multiplied again.
        """
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
        terms, d = self.num, self.den
        if not terms:
            return target.zero
        used = reduce(operator.or_, terms)
        forms = {}  # shift of x_i -> num_i for every x_i used
        scales = []  # (shift, E_i, [d_i^k for k <= E_i]) for every d_i != 1
        for i, name in enumerate(self.ring.names):
            s = _WIDTH * i
            if (used >> s) & _FIELD:
                y = images.get(i)
                if y is None:
                    y = target.var(name)
                elif not isinstance(y, Poly):
                    y = target.const(y)
                forms[s] = y.num
                if y.den != 1:
                    E = max((m >> s) & _FIELD for m in terms)
                    scales.append((s, E, [y.den ** k for k in range(E + 1)]))
                    d *= y.den ** E

        powers = {}  # (shift of x_i, e) -> y_i^e, with the halving powers

        def power(s, e):
            p = powers.get((s, e))
            if p is None:
                if e == 1:
                    p = forms[s]
                else:
                    h = power(s, e >> 1)
                    p = _checked(target, _mul_into({}, h, h))
                    if e & 1:
                        p = _checked(target, _mul_into({}, p, forms[s]))
                    p = {k: c for k, c in p.items() if c}
                powers[s, e] = p
            return p

        acc = {}
        for m, c in terms.items():
            for s, E, pw in scales:
                c *= pw[E - ((m >> s) & _FIELD)]
            # the largest power last, so it is read once, into acc
            *rest, last = sorted(
                (power(s, e) for s in forms if (e := (m >> s) & _FIELD)), key=len
            ) or [{0: 1}]
            prod = {0: 1}
            for p in rest:
                prod = _checked(target, _mul_into({}, prod, p))
            _mul_into(acc, prod, last, c)
        return _unscaled(target, acc, d)

    def evaluate(self, point: Mapping) -> "int | Fraction":
        """Evaluate at a full numeric assignment {name: rational}."""
        vals = []
        for name in self.ring.names:
            if name not in point:
                raise KeyError(f"no value for variable {name!r}")
            vals.append(point[name])
        total = 0
        unpack = self.ring.unpack
        for m, c in self.num.items():
            for v, e in zip(vals, unpack(m)):
                if e:
                    c *= v**e
            total += c
        return _rational(total, self.den)

    # -- grading -----------------------------------------------------------

    def weight_check(self) -> "int | None":
        """Common weight of all terms; None if inhomogeneous; 0 for zero."""
        weights = set(map(self.ring.key_weight, self.num))
        if len(weights) > 1:
            return None
        return weights.pop() if weights else 0

    def is_homogeneous_of(self, weight: int) -> bool:
        """True when every term has the given weight (zero poly passes)."""
        return all(self.ring.key_weight(m) == weight for m in self.num)

    def degree_in(self, var) -> int:
        s = _WIDTH * self.ring.index(var)
        return max(((m >> s) & _FIELD for m in self.num), default=0)

    def coeffs_in(self, var) -> dict[int, "Poly"]:
        """Split into {exponent of var: polynomial coefficient} (var removed)."""
        s = _WIDTH * self.ring.index(var)
        buckets: dict[int, dict] = {}
        for m, c in self.num.items():
            e = (m >> s) & _FIELD
            buckets.setdefault(e, {})[m - (e << s)] = c
        return {e: Poly._of(self.ring, t, self.den) for e, t in sorted(buckets.items())}

    def variables_used(self) -> set[str]:
        used = reduce(operator.or_, self.num, 0)
        return {name for i, name in enumerate(self.ring.names)
                if (used >> (_WIDTH * i)) & _FIELD}

    def constant_value(self) -> "int | Fraction":
        """The value of a constant polynomial; raises if non-constant."""
        if not self.num:
            return 0
        if len(self.num) == 1:
            ((m, c),) = self.num.items()
            if not m:
                return _rational(c, self.den)
        raise ValueError("polynomial is not constant")

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list:
        """The (exponent tuple, rational) pairs by weight, then by name."""
        ring = self.ring

        def key(item):
            m, _ = item
            named = tuple(
                (ring.names[i], e) for i, e in enumerate(m) if e
            )
            return (sum(e * w for e, w in zip(m, ring.weights)), tuple(sorted(named)))

        return sorted(self.terms.items(), key=key)

    def to_text(self) -> str:
        """Canonical text form, e.g. ``-4/3*l4^3 + 6*l6``."""
        if not self.num:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
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
        for m, c in self.sorted_terms():
            mono = {
                self.ring.names[i]: e for i, e in enumerate(m) if e
            }
            terms.append({"c": str(c), "m": mono})
        return {"terms": terms}


def cast(p: Poly, target: Ring) -> Poly:
    """Re-express a polynomial in another ring containing its variables."""
    if p.ring == target:
        return p
    moves = []  # (source shift, target shift) of every variable p uses
    for name in sorted(p.variables_used(), key=p.ring.index):
        if name not in target._index:
            raise KeyError(f"variable {name!r} absent from target ring")
        moves.append((_WIDTH * p.ring.index(name), _WIDTH * target.index(name)))
    out = {sum(((m >> s) & _FIELD) << t for s, t in moves): c for m, c in p.num.items()}
    return Poly._of(target, out, p.den)


# -- exact division ----------------------------------------------------------


def divexact(p: Poly, d: Poly) -> Poly:
    """Exact division p/d in the polynomial ring; raises if not divisible.

    Runs on numerators and keys: p/d = (p.num / d.num) * d.den / p.den.
    Terms are ordered by (weight, key), largest first: with non-negative
    weights and carry-free key sums a monomial order, so each step cancels
    the remainder's leading term and the division ends.  The keys of that
    term and of d's are subtracted with every guard bit set, so a field
    that would go negative clears its own guard bit instead of borrowing
    from the next field, and then ``ValueError`` is raised.

    The leading term comes off a min-heap keyed by (-weight, -key).  A
    monomial is pushed when it enters the remainder and skipped when popped
    after it cancelled, so n entries cost O(n log n), not the O(n^2) of
    scanning the remainder for its maximum at every step.
    """
    _same_ring(p, d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    ring, guard = p.ring, p.ring._guard
    weight = ring.key_weight
    dm = max(d.num, key=lambda m: (weight(m), m))
    dc, dw = d.num[dm], weight(dm)
    tail = [(m2, c2, weight(m2) - dw) for m2, c2 in d.num.items() if m2 != dm]
    rem = dict(p.num)
    heap = [(-weight(m), -m) for m in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        negw, negm = heapq.heappop(heap)
        rc = rem.pop(-negm, 0)
        if not rc:
            continue  # cancelled after it was pushed
        qm = ((-negm | guard) - dm) ^ guard
        if qm & guard:
            raise ValueError("polynomials do not divide exactly")
        qc, r = divmod(rc, dc)
        if r:
            qc = Fraction(rc, dc)  # an int otherwise, for the rest of the row
        out[qm] = qc
        for m2, c2, offset in tail:
            k = qm + m2
            prev = rem.get(k)
            if prev is None:
                rem[k] = -qc * c2
                heapq.heappush(heap, (negw - offset, -k))
            else:
                s = prev - qc * c2
                if s:
                    rem[k] = s
                else:
                    del rem[k]
    den = math.lcm(*(c.denominator for c in out.values()))
    num = {m: c.numerator * (den // c.denominator) * d.den for m, c in out.items()}
    return Poly._of(ring, num, den * p.den)


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
    """(d, ints): d the lcm of the denominators of ``polys`` and ints[j] the
    numerators of polys[j] over d.  A polynomial already over d hands out its
    own ``num``, so the dicts must not be mutated."""
    polys = list(polys)
    d = math.lcm(*(p.den for p in polys))
    return d, [p.num if p.den == d else {m: c * (d // p.den) for m, c in p.num.items()}
               for p in polys]


def _mul_into(acc: dict, a: Mapping, b: Mapping, f: int = 1) -> dict:
    """acc += f * a * b on monomial keys; returns acc."""
    get = acc.get
    for ka, ca in a.items():
        fa = f * ca
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + fa * cb
    return acc


def _leibniz(acc: dict, terms: Mapping, images, f: int):
    """acc += f * sum_i images_i * d(terms)/dx_i, on monomial keys.

    ``images`` lists (s, unit, image terms) per acted-on x_i, s = _WIDTH * i
    the offset of x_i's field and unit = 1 << s.  For each term c*x^m with
    e = m_i > 0, c*e times every image term is added at the key
    m - unit + k: lowering x_i by one and multiplying by x^k.
    """
    get = acc.get
    for m, c in terms.items():
        for s, unit, img in images:
            e = (m >> s) & _FIELD
            if e:
                ce = f * c * e
                base = m - unit
                for k, ci in img.items():
                    key = base + k
                    acc[key] = get(key, 0) + ce * ci


def _unscaled(ring: Ring, acc: Mapping, d: int) -> Poly:
    """The polynomial acc / d, zero terms dropped, after raising
    ``OverflowError`` if an exponent has reached 2^31."""
    return Poly._of(ring, _checked(ring, {m: c for m, c in acc.items() if c}), d)


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
        [Poly._of(ring, t) for t in row] for _, row in scaled
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
    cost dominated by small-entry-times-minor products on monomial keys.
    Each level's minors are checked for an exponent of 2^31 before the next
    row multiplies them, so no field carries into the next.
    """
    if not matrix.is_square:
        raise ValueError("determinant requires a square matrix")
    n = matrix.nrows
    ring = matrix.ring
    if n == 0:
        return ring.one
    scaled = [_int_form(row) for row in matrix.rows]

    masks_by_count = [[] for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        masks_by_count[bin(mask).count("1")].append(mask)

    # Nonzero minors only.  Masks run in increasing order, so the last
    # superset of a lower-level minor is the one with every higher column
    # set: mask pops mask ^ bit for each bit above its highest unset column.
    full = (1 << n) - 1
    prev_level = {0: {0: 1}}
    for r in range(1, n + 1):
        row = scaled[r - 1][1]
        cur_level = {}
        get_minor, pop_minor = prev_level.get, prev_level.pop
        row_sign = 1 if (r - 1) % 2 == 0 else -1
        for mask in masks_by_count[r]:
            acc: dict[int, int] = {}
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
                    _mul_into(acc, e, sub, sign)
                sign = -sign
            minor = {k: v for k, v in acc.items() if v}
            if minor:
                cur_level[mask] = _checked(ring, minor)
        prev_level = cur_level

    return _unscaled(ring, prev_level.get(full, {}), math.prod(d for d, _ in scaled))


def parity(seq: Sequence) -> int:
    """The sign, 1 or -1, of the permutation that sorts the distinct ``seq``."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


def _subtract(row: dict, f, prow: Mapping):
    """row -= f * prow in place, zero entries dropped."""
    for c, v in prow.items():
        if x := row.get(c, 0) - f * v:
            row[c] = x
        else:
            del row[c]


def row_reduce(rows: Iterable[Mapping]) -> tuple[dict[int, dict], Fraction]:
    """Sparse Gauss-Jordan elimination over Q of rows {column: int or Fraction}:
    each step pivots on the lowest column of the shortest remaining row (H. M.
    Markowitz, Management Science 3(3), 1957), then back substitution clears
    the other pivots.  Returns (pivots, det): each pivot column's row, 1 there
    and 0 in every other pivot column, and the pivot product signed by the
    permutation row -> pivot column, or 0 when a row has no pivot."""
    rest = {i: {c: v for c, v in row.items() if v} for i, row in enumerate(rows)}
    heap = sorted((len(row), i) for i, row in rest.items())  # (length, row) entries
    steps, det = [], Fraction(1)
    while heap:
        n, i = heapq.heappop(heap)
        if i not in rest or len(rest[i]) != n:  # an outdated entry
            continue
        prow = rest.pop(i)
        if not prow:
            det = Fraction(0)
            continue
        col = min(prow)
        p = Fraction(prow[col])
        det *= p
        prow = {c: v / p for c, v in prow.items()}
        for j, row in rest.items():
            if col in row:
                _subtract(row, row[col], prow)
                heapq.heappush(heap, (len(row), j))
        steps.append((i, col, prow))
    pivots = {}
    for _, col, prow in reversed(steps):
        for c in [c for c in prow if c in pivots]:
            _subtract(prow, prow[c], pivots[c])
        pivots[col] = prow
    return pivots, det and det * parity([c for _, c, _ in sorted(steps)])


def solve_unique(rows: Iterable[Mapping], ncols: int) -> "list[Fraction] | str":
    """The one x with sum_c row[c] * x[c] = row[ncols] for every row, or "no
    solution" (a row reduced to column ncols alone pivots there) or "not unique"."""
    pivots, _ = row_reduce(rows)
    if ncols in pivots:
        return "no solution"
    if len(pivots) < ncols:
        return "not unique"
    return [pivots[c].get(ncols, Fraction(0)) for c in range(ncols)]


# -- named polynomial maps ----------------------------------------------------


class PolyMap:
    """A named polynomial map: ordered components {target variable: Poly}.

    ``pullback`` is ``Poly.substitute`` of the components; nothing is kept
    between pullbacks.
    """

    __slots__ = ("name", "source", "target", "components")

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

    def pullback(self, p: Poly) -> Poly:
        """Compose: substitute this map's components into a target-ring poly."""
        if p.ring != self.target:
            raise RingMismatchError("pullback argument not in target ring")
        return p.substitute(self.components, target=self.source)
