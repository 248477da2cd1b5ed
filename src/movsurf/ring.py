"""Bigraded polynomial arithmetic over exact rationals.

The parameter ring is Q[s,u,t,v], bigraded so that s,u carry bidegree (1,0)
and t,v carry bidegree (0,1).  Image-space polynomials live in Q[x0,x1,x2,x3]
with the usual total grading.  Monomials are bare exponent tuples:
(es,eu,et,ev) for the parameter ring, (e0,e1,e2,e3) for the image ring.

The canonical term order is graded lex with s > u > t > v (resp.
x0 > x1 > x2 > x3).  Everything here is an immutable value; all operations
are pure and exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd

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


def _suv_key(mono):
    # at fixed bidegree, graded lex s>u>t>v is decided by (es, et)
    return (mono[0] + mono[1], mono[2] + mono[3], mono[0], mono[2])


def _x_key(mono):
    return (sum(mono), mono[0], mono[1], mono[2])


class BihomPoly:
    """Bihomogeneous polynomial with a declared bidegree.

    The zero polynomial keeps its declared bidegree so bidegree bookkeeping
    never needs a special case.  Coefficients are Fractions in lowest terms
    (Fraction guarantees that); zero coefficients are never stored.
    """

    __slots__ = ("bidegree", "terms")

    def __init__(self, bidegree, terms):
        d = (int(bidegree[0]), int(bidegree[1]))
        if d[0] < 0 or d[1] < 0:
            raise ValueError("negative bidegree %s" % (d,))
        clean = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            md = monomial_bidegree(mono)
            if md != d:
                raise ValueError("monomial %s has bidegree %s, declared %s"
                                 % (render_monomial(mono, SUV_VARS), md, d))
            clean[mono] = c
        object.__setattr__(self, "bidegree", d)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("BihomPoly is immutable")

    @classmethod
    def zero(cls, bidegree):
        return cls(bidegree, {})

    @classmethod
    def monomial(cls, mono, coeff=1):
        return cls(monomial_bidegree(mono), {mono: Fraction(coeff)})

    def is_zero(self):
        return not self.terms

    def coeff(self, mono):
        return self.terms.get(mono, Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, BihomPoly)
                and self.bidegree == other.bidegree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.bidegree, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.bidegree != other.bidegree:
            raise ValueError("cannot add bidegrees %s and %s"
                             % (self.bidegree, other.bidegree))
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            c2 = terms.get(mono, 0) + c
            if c2:
                terms[mono] = c2
            else:
                terms.pop(mono, None)
        return BihomPoly(self.bidegree, terms)

    def __neg__(self):
        return BihomPoly(self.bidegree, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        d = (self.bidegree[0] + other.bidegree[0],
             self.bidegree[1] + other.bidegree[1])
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                c = terms.get(m, 0) + c1 * c2
                if c:
                    terms[m] = c
                else:
                    del terms[m]
        return BihomPoly(d, terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return BihomPoly.zero(self.bidegree)
        return BihomPoly(self.bidegree, {m: v * c for m, v in self.terms.items()})

    def evaluate(self, point):
        s, u, t, v = (Fraction(p) for p in point)
        total = Fraction(0)
        for (es, eu, et, ev), c in self.terms.items():
            total += c * s**es * u**eu * t**et * v**ev
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _suv_key(kv[0]),
                      reverse=True)

    def render(self):
        return _render_terms(self.sorted_terms(), SUV_VARS)

    def __repr__(self):
        return "BihomPoly(%s, %r)" % (self.render(), self.bidegree)


class XPoly:
    """Polynomial in the image coordinates x0..x3 over exact rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c:
                clean[tuple(mono)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("XPoly is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def monomial(cls, mono, coeff=1):
        return cls({tuple(mono): Fraction(coeff)})

    def is_zero(self):
        return not self.terms

    def coeff(self, mono):
        return self.terms.get(tuple(mono), Fraction(0))

    def total_degree(self):
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        return isinstance(other, XPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c2 = terms.get(m, 0) + c
            if c2:
                terms[m] = c2
            else:
                del terms[m]
        return XPoly(terms)

    def __neg__(self):
        return XPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                c = terms.get(m, 0) + c1 * c2
                if c:
                    terms[m] = c
                else:
                    del terms[m]
        return XPoly(terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return XPoly.zero()
        return XPoly({m: v * c for m, v in self.terms.items()})

    def evaluate(self, values):
        a, b, c, d = (Fraction(v) for v in values)
        total = Fraction(0)
        for (e0, e1, e2, e3), co in self.terms.items():
            total += co * a**e0 * b**e1 * c**e2 * d**e3
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _x_key(kv[0]),
                      reverse=True)

    def render(self):
        return _render_terms(self.sorted_terms(), X_VARS)

    def __repr__(self):
        return "XPoly(%s)" % self.render()


# ---------------------------------------------------------------------------
# rendering


def render_monomial(mono, variables):
    parts = []
    for var, e in zip(variables, mono):
        if e == 0:
            continue
        parts.append(var if e == 1 else "%s^%d" % (var, e))
    return "*".join(parts)


def _render_coeff(c):
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def _render_terms(sorted_terms, variables):
    if not sorted_terms:
        return "0"
    parts = []
    for mono, c in sorted_terms:
        body = render_monomial(mono, variables)
        mag = abs(c)
        if not body:
            body = _render_coeff(mag)
        elif mag != 1:
            body = "%s*%s" % (_render_coeff(mag), body)
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
    monos = sorted(terms, key=_suv_key, reverse=True)
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


def content_normalize(coeffs):
    """Rescale a list of Fractions to coprime integers, first nonzero > 0."""
    nz = [c for c in coeffs if c]
    if not nz:
        return [Fraction(0)] * len(coeffs)
    den = reduce(lambda a, b: a * b // gcd(a, b), (c.denominator for c in nz), 1)
    ints = [c * den for c in coeffs]
    g = reduce(gcd, (abs(int(c)) for c in ints if c))
    ints = [c / g for c in ints]
    if next(c for c in ints if c) < 0:
        ints = [-c for c in ints]
    return ints
