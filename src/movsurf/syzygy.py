"""Moving planes and moving quadrics of a bidegree-(m,n) parametrization.

A parametrization phi = (a0,a1,a2,a3) of P1 x P1 -> P3 determines three
multiplication maps at the working bidegree (m-1, n-1):

    plane map    R_{m-1,n-1}^4  -> R_{2m-1,2n-1}   (A_i)  -> sum A_i a_i
    abc map      R_{m-1,n-1}^3  -> R_{2m-1,2n-1}   (A_i)  -> sum A_i a_i,  i<3
    quadric map  R_{m-1,n-1}^10 -> R_{3m-1,3n-1}   (A_ij) -> sum A_ij a_i a_j

Their kernels are the moving planes, the syzygies on (a0,a1,a2), and the
moving quadrics that follow phi.  One builder, multiple_rows, gives the
generator multiples mu*g as integer rows, all generators scaled by one
common integer: the condition battery ranks these rows, and a map's matrix
is their transpose.  Kernel vectors are canonicalized to coprime integer
coordinates with positive leading coordinate, so bases are reproducible
run to run.

A moving plane or quadric is kept as its kernel vector, a row of
coefficients in the column order of its map: with mn = m*n, position
b*mn + i holds the coefficient of the parameter monomial
monomial_basis((m-1, n-1))[i] in front of the x-monomial X_MONOMIALS[d][b],
d = 1 for a plane (4mn entries) and d = 2 for a quadric (10mn entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import RatMatrix, integer_rank, kernel_basis
from .ring import BihomPoly, clear

# x_i x_j blocks of the quadric map, in this fixed order
PROD_ORDER = tuple((i, j) for i in range(4) for j in range(i, 4))


def x_monomial(i, j=None):
    """Exponent tuple of x_i (degree 1) or x_i*x_j (degree 2)."""
    e = [0, 0, 0, 0]
    e[i] += 1
    if j is not None:
        e[j] += 1
    return tuple(e)


# the x-monomials of x-degree 1 or 2, in the column-block order of the plane
# and quadric maps
X_MONOMIALS = {1: tuple(x_monomial(i) for i in range(4)),
               2: tuple(x_monomial(i, j) for i, j in PROD_ORDER)}


@dataclass(frozen=True)
class Parametrization:
    m: int
    n: int
    a: tuple

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("bidegree (%d,%d) must be at least (1,1)"
                             % (self.m, self.n))
        if len(self.a) != 4:
            raise ValueError("a parametrization needs exactly 4 polynomials")
        object.__setattr__(self, "a", tuple(self.a))
        for i, f in enumerate(self.a):
            if f.bidegree != (self.m, self.n):
                raise ValueError(
                    "a%d has bidegree %s, expected (%d,%d)"
                    % (i, f.bidegree, self.m, self.n))

    @property
    def mn(self):
        return self.m * self.n

    @property
    def working_bidegree(self):
        return (self.m - 1, self.n - 1)

    @cached_property
    def _products(self):
        # the forms cleared once by a common integer den, multiplied on ints
        # in the loop order of _Poly.__mul__ (so the terms come out in its
        # order too), and divided by den^2 at the end
        ints, den = clear([c for f in self.a for c in f.terms.values()])
        it = iter(ints)
        forms = [[(mono, next(it)) for mono in f.terms] for f in self.a]
        square = den * den
        bidegree = (2 * self.m, 2 * self.n)
        out = []
        for i, j in PROD_ORDER:
            terms = {}
            for (s1, u1, t1, v1), c1 in forms[i]:
                for (s2, u2, t2, v2), c2 in forms[j]:
                    mono = (s1 + s2, u1 + u2, t1 + t2, v1 + v2)
                    c = terms.get(mono, 0) + c1 * c2
                    if c:
                        terms[mono] = c
                    else:
                        del terms[mono]
            out.append(BihomPoly(bidegree, {mono: Fraction(c, square)
                                            for mono, c in terms.items()}))
        return tuple(out)

    def products(self):
        """The ten pairwise products a_i a_j, i <= j, in block order, as a
        fresh list; they are computed once per instance, on the integer
        multiples of the a_i."""
        return list(self._products)

    def evaluate(self, point):
        return tuple(f.evaluate(point) for f in self.a)


@dataclass
class SyzygyBasis:
    elements: list  # coefficient rows, laid out as in the module docstring

    @property
    def dim(self):
        return len(self.elements)


def multiple_rows(generators, target):
    """The multiples mu*g into bidegree `target`, as rows of integers over
    the canonical monomial basis of the target.

    One row per generator g and monomial mu of the complementary bidegree,
    generators in order and mu in canonical order.  All generators are
    scaled by one common positive integer, the lcm of the denominators of
    their coefficients, so the rows span the multiples and every relation
    among them is a relation among the multiples.
    """
    target = (int(target[0]), int(target[1]))
    # the target monomial (i, e0 - i, j, e1 - j) sits at position
    # (e0 - i) * width + (e1 - j), width = e1 + 1; so mono*mu sits at the
    # position of mono at deg g, taken with that width, plus the offset
    # of mu at d, which runs through its canonical order row by row
    width = target[1] + 1
    full = (target[0] + 1) * width
    coeffs = iter(clear([c for g in generators for c in g.terms.values()])[0])
    rows = []
    for g in generators:
        g0, g1 = g.bidegree
        d0, d1 = target[0] - g0, target[1] - g1
        if d0 < 0 or d1 < 0:
            raise ValueError("bidegree underflow: generator %s into target %s"
                             % (g.bidegree, target))
        # zip stops at the end of g.terms, so it takes g's coefficients only
        terms = [((g0 - mono[0]) * width + g1 - mono[2], c)
                 for mono, c in zip(g.terms, coeffs)]
        for shift in range(0, (d0 + 1) * width, width):
            for at in range(shift, shift + d1 + 1):
                row = [0] * full
                for q, c in terms:
                    row[q + at] = c
                rows.append(row)
    return rows


def mult_matrix(generators, target):
    """Matrix of (A_g) -> sum A_g * g into bidegree `target`, with column
    blocks in generator order and rows over the canonical monomial basis of
    the target: the transpose of the integer multiple_rows, whose common
    scaling changes neither the kernel nor the rank."""
    return RatMatrix([list(col)
                      for col in zip(*multiple_rows(generators, target))])


def plane_map_matrix(phi):
    return mult_matrix(phi.a, (2 * phi.m - 1, 2 * phi.n - 1))


def quadric_map_matrix(phi):
    return mult_matrix(phi.products(), (3 * phi.m - 1, 3 * phi.n - 1))


def moving_planes(phi):
    """Basis of the moving planes of bidegree (m-1, n-1) following phi."""
    return SyzygyBasis(kernel_basis(plane_map_matrix(phi)).vectors)


def moving_quadrics(phi):
    """Basis of the moving quadrics of bidegree (m-1, n-1) following phi."""
    return SyzygyBasis(kernel_basis(quadric_map_matrix(phi)).vectors)


def syz_dim_abc(phi):
    """Dimension of the bidegree-(m-1,n-1) syzygies on a0, a1, a2 alone.

    The kernel of the abc map, whose 3mn columns are the multiples mu*a_i.
    multiple_rows gives them as the rows of the transposed map, so its rank
    is the rank of the map.
    """
    rows = multiple_rows(phi.a[:3], (2 * phi.m - 1, 2 * phi.n - 1))
    return 3 * phi.mn - integer_rank(rows, 4 * phi.mn)
