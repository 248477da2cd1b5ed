"""Bigraded polynomial arithmetic over exact rationals.

The parameter ring is Q[s,u,t,v], bigraded so that s,u carry bidegree (1,0)
and t,v carry bidegree (0,1).  Image-space polynomials live in Q[x0,x1,x2,x3]
with the usual total grading.  Monomials are bare exponent tuples:
(es,eu,et,ev) for the parameter ring, (e0,e1,e2,e3) for the image ring.

Both rings share one implementation: BihomPoly and XPoly differ only in
their variables and their grading (a declared bidegree, or none), and
arithmetic never mixes them.  One term order, graded lex on the exponent
tuples, sorts both (s > u > t > v, x0 > x1 > x2 > x3), and `clear` is the
one routine that scales ints and Fractions to integers by the lcm of their
denominators.  Everything here is an immutable value; all operations are
pure and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

SUV_VARS = ("s", "u", "t", "v")
X_VARS = ("x0", "x1", "x2", "x3")


class ParseError(ValueError):
    """Syntax error in a polynomial string, with the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class MixedBidegreeError(ValueError):
    """Two monomials of one polynomial disagree in bidegree."""

    def __init__(self, mono_a, deg_a, mono_b, deg_b):
        super().__init__(
            "mixed bidegrees: %s has bidegree %s but %s has bidegree %s"
            % (render_monomial(mono_a, SUV_VARS), deg_a,
               render_monomial(mono_b, SUV_VARS), deg_b))
        self.monomials = (mono_a, mono_b)
        self.bidegrees = (deg_a, deg_b)


def monomial_bidegree(mono):
    return (mono[0] + mono[1], mono[2] + mono[3])


def bidegree_leq(d, e):
    """Componentwise partial order on bidegrees."""
    return d[0] <= e[0] and d[1] <= e[1]


def monomial_basis(d):
    """All monomials of bidegree d in canonical (descending graded-lex) order.

    Exactly (d1+1)(d2+1) monomials.
    """
    d1, d2 = d
    if d1 < 0 or d2 < 0:
        raise ValueError("negative bidegree %s" % (d,))
    return [(i, d1 - i, j, d2 - j)
            for i in range(d1, -1, -1) for j in range(d2, -1, -1)]


def _term_key(mono):
    # graded lex; at a fixed bidegree it orders s > u > t > v
    return (sum(mono), mono[0], mono[1], mono[2])


class _Poly:
    """Exact polynomial over Q: a dict from exponent tuples to nonzero
    Fractions, immutable, with arithmetic, evaluation, rendering, equality
    and hashing shared by the two rings.

    A subclass names its variables and its grading: the values in front of
    the terms in its constructor, which equality compares and addition
    requires to agree.  Mixing the two rings raises ValueError.
    """

    __slots__ = ("terms",)
    variables = ()

    def __init__(self, terms):
        clean = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c:
                clean[tuple(mono)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _grading(self):
        return ()

    def _product_grading(self, other):
        return ()

    def _same_ring(self, other, op):
        if type(other) is not type(self):
            raise ValueError("cannot %s %s and %s" % (
                op, type(self).__name__, type(other).__name__))

    @classmethod
    def zero(cls, *grading):
        return cls(*grading, {})

    def is_zero(self):
        return not self.terms

    def coeff(self, mono):
        return self.terms.get(tuple(mono), Fraction(0))

    def __eq__(self, other):
        return (type(other) is type(self)
                and self._grading() == other._grading()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self._grading(), frozenset(self.terms.items())))

    def __add__(self, other):
        self._same_ring(other, "add")
        if self._grading() != other._grading():
            raise ValueError("cannot add bidegrees %s and %s"
                             % (self._grading() + other._grading()))
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            c2 = terms.get(mono, 0) + c
            if c2:
                terms[mono] = c2
            else:
                del terms[mono]
        return type(self)(*self._grading(), terms)

    def __neg__(self):
        return type(self)(*self._grading(),
                          {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._same_ring(other, "multiply")
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                c = terms.get(m, 0) + c1 * c2
                if c:
                    terms[m] = c
                else:
                    del terms[m]
        return type(self)(*self._product_grading(other), terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        return type(self)(*self._grading(),
                          {m: v * c for m, v in self.terms.items()})

    def evaluate(self, point):
        a, b, c, d = (Fraction(x) for x in point)
        total = Fraction(0)
        for (e0, e1, e2, e3), co in self.terms.items():
            total += co * a**e0 * b**e1 * c**e2 * d**e3
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_key(kv[0]),
                      reverse=True)

    def render(self):
        return _render_terms(self.sorted_terms(), self.variables)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            [self.render()] + [repr(g) for g in self._grading()]))


class BihomPoly(_Poly):
    """Bihomogeneous polynomial in s,u,t,v with a declared bidegree.

    The zero polynomial keeps its declared bidegree so bidegree bookkeeping
    never needs a special case.  Coefficients are Fractions in lowest terms
    (Fraction guarantees that); zero coefficients are never stored.
    """

    __slots__ = ("bidegree",)
    variables = SUV_VARS

    def __init__(self, bidegree, terms):
        d = (int(bidegree[0]), int(bidegree[1]))
        if d[0] < 0 or d[1] < 0:
            raise ValueError("negative bidegree %s" % (d,))
        object.__setattr__(self, "bidegree", d)
        super().__init__(terms)
        for mono in self.terms:
            md = monomial_bidegree(mono)
            if md != d:
                raise ValueError("monomial %s has bidegree %s, declared %s"
                                 % (render_monomial(mono, SUV_VARS), md, d))

    @classmethod
    def monomial(cls, mono, coeff=1):
        return cls(monomial_bidegree(mono), {mono: Fraction(coeff)})

    def _grading(self):
        return (self.bidegree,)

    def _product_grading(self, other):
        return ((self.bidegree[0] + other.bidegree[0],
                 self.bidegree[1] + other.bidegree[1]),)


class XPoly(_Poly):
    """Polynomial in the image coordinates x0..x3 over exact rationals."""

    __slots__ = ()
    variables = X_VARS

    @classmethod
    def monomial(cls, mono, coeff=1):
        return cls({tuple(mono): Fraction(coeff)})

    def total_degree(self):
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1


# ---------------------------------------------------------------------------
# rendering


def render_monomial(mono, variables):
    parts = []
    for var, e in zip(variables, mono):
        if e == 0:
            continue
        parts.append(var if e == 1 else "%s^%d" % (var, e))
    return "*".join(parts)


def _render_terms(sorted_terms, variables):
    if not sorted_terms:
        return "0"
    parts = []
    for mono, c in sorted_terms:
        body = render_monomial(mono, variables)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = "%s*%s" % (mag, body)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing
#
#   poly   := term (("+"|"-") term)* | "0"
#   term   := [sign] [coeff ["*"]] factor ("*" factor)*  |  [sign] coeff
#   coeff  := integer | integer "/" integer
#   factor := var ["^" integer]
#
# Whitespace is insignificant.


class _Scanner:
    def __init__(self, text, variables):
        self.text = text
        self.pos = 0
        self.variables = variables

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected integer", start)
        return int(self.text[start:self.pos])

    def variable(self):
        """Return the variable index, or None if no variable starts here."""
        self.skip_ws()
        for i, name in enumerate(self.variables):
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return i
        return None


def _parse_terms(text, variables):
    """Parse into a dict mapping exponent tuples to Fractions."""
    sc = _Scanner(text, variables)
    nvars = len(variables)
    terms = {}
    first = True
    while True:
        sign = 1
        if sc.eat("+"):
            pass
        elif sc.eat("-"):
            sign = -1
        elif not first and sc.peek():
            raise ParseError("expected '+' or '-'", sc.pos)
        if not sc.peek():
            if first:
                raise ParseError("empty polynomial", sc.pos)
            raise ParseError("dangling sign", sc.pos)
        first = False

        coeff = Fraction(sign)
        have_coeff = False
        need_factor = False
        if sc.peek().isdigit():
            num = sc.integer()
            if sc.eat("/"):
                den = sc.integer()
                if den == 0:
                    raise ParseError("zero denominator", sc.pos)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            have_coeff = True
            need_factor = sc.eat("*")

        expo = [0] * nvars
        have_var = False
        while True:
            idx = sc.variable()
            if idx is None:
                if need_factor and have_var:
                    raise ParseError("expected variable after '*'", sc.pos)
                break
            have_var = True
            power = 1
            if sc.eat("^"):
                power = sc.integer()
            expo[idx] += power
            if not sc.eat("*"):
                need_factor = False
                break
            need_factor = True
        if not have_var:
            if not have_coeff or need_factor:
                raise ParseError("expected variable or coefficient", sc.pos)
        mono = tuple(expo)
        c = terms.get(mono, Fraction(0)) + coeff
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)

        if not sc.peek():
            break
        if sc.peek() not in "+-":
            raise ParseError("unexpected character %r" % sc.peek(), sc.pos)
    return terms


def parse(text, bidegree=None):
    """Parse a bihomogeneous polynomial in s,u,t,v.

    The bidegree is inferred from the first term; a declared bidegree is
    required only to give meaning to the zero polynomial and is checked
    against the inferred one otherwise.
    """
    terms = _parse_terms(text, SUV_VARS)
    if not terms:
        return BihomPoly.zero(bidegree if bidegree is not None else (0, 0))
    # highest bidegree first: the reported pair ignores the written order
    monos = sorted(terms, key=lambda m: (monomial_bidegree(m), _term_key(m)),
                   reverse=True)
    d = monomial_bidegree(monos[0])
    for mono in monos[1:]:
        md = monomial_bidegree(mono)
        if md != d:
            raise MixedBidegreeError(monos[0], d, mono, md)
    if bidegree is not None and tuple(bidegree) != d:
        raise ValueError("declared bidegree %s but parsed bidegree %s"
                         % (tuple(bidegree), d))
    return BihomPoly(d, terms)


def parse_xpoly(text):
    """Parse a polynomial in x0..x3 (same grammar, different variables)."""
    return XPoly(_parse_terms(text, X_VARS))


# ---------------------------------------------------------------------------
# vector interface


def coeff_vector(f, basis):
    """Coefficients of f on an explicit monomial basis, as a list.

    The basis must carry f's declared bidegree (checked on the first
    basis element).
    """
    if basis and monomial_bidegree(basis[0]) != f.bidegree:
        raise ValueError("bidegree mismatch: basis %s vs polynomial %s"
                         % (monomial_bidegree(basis[0]), f.bidegree))
    return [f.terms.get(m, Fraction(0)) for m in basis]


def clear(values):
    """Integer multiples of `values` (ints or Fractions) by the lcm of their
    denominators; returns (ints, lcm)."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def content_normalize(coeffs):
    """Rescale a list of ints or Fractions to coprime integers, as Fractions,
    with the first nonzero one positive."""
    ints, _ = clear(coeffs)
    g = gcd(*ints)
    if not g:
        return [Fraction(0)] * len(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [Fraction(x // g) for x in ints]
