"""Moving planes and moving quadrics of a bidegree-(m,n) parametrization.

A parametrization phi = (a0,a1,a2,a3) of P1 x P1 -> P3 determines three
multiplication maps at the working bidegree (m-1, n-1):

    plane map    R_{m-1,n-1}^4  -> R_{2m-1,2n-1}   (A_i)  -> sum A_i a_i
    abc map      R_{m-1,n-1}^3  -> R_{2m-1,2n-1}   (A_i)  -> sum A_i a_i,  i<3
    quadric map  R_{m-1,n-1}^10 -> R_{3m-1,3n-1}   (A_ij) -> sum A_ij a_i a_j

Their kernels are the moving planes, the syzygies on (a0,a1,a2), and the
moving quadrics that follow phi.  Kernel vectors are canonicalized to coprime
integer coordinates with positive leading coordinate, so bases are
reproducible run to run.

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
from .ring import monomial_basis, primitive

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
        return tuple(self.a[i] * self.a[j] for i, j in PROD_ORDER)

    def products(self):
        """The ten pairwise products a_i a_j, i <= j, in block order, as a
        fresh list; they are computed once per instance."""
        return list(self._products)

    def evaluate(self, point):
        return tuple(f.evaluate(point) for f in self.a)


@dataclass
class SyzygyBasis:
    elements: list  # coefficient rows, laid out as in the module docstring

    @property
    def dim(self):
        return len(self.elements)


def _multiples(generators, target, coefficients, zero):
    """The multiples mu*g into bidegree `target`, as rows over the canonical
    monomial basis of the target, and that basis's length.

    One row per generator g and monomial mu of the complementary bidegree,
    generators in order and mu in canonical order.  coefficients(g) lists
    the coefficients g contributes, in the order of g.terms; zero fills the
    other entries.
    """
    target = (int(target[0]), int(target[1]))
    row_index = {m: i for i, m in enumerate(monomial_basis(target))}
    rows = []
    for g in generators:
        d = (target[0] - g.bidegree[0], target[1] - g.bidegree[1])
        if d[0] < 0 or d[1] < 0:
            raise ValueError("bidegree underflow: generator %s into target %s"
                             % (g.bidegree, target))
        terms = list(zip(g.terms, coefficients(g)))
        for mu in monomial_basis(d):
            row = [zero] * len(row_index)
            for mono, c in terms:
                row[row_index[(mono[0] + mu[0], mono[1] + mu[1],
                               mono[2] + mu[2], mono[3] + mu[3])]] = c
            rows.append(row)
    return rows, len(row_index)


def mult_matrix(generators, target):
    """Matrix of (A_g) -> sum A_g * g into bidegree `target`.

    Column blocks follow the generator order; inside a block, multiplier
    monomials run in canonical order.  Rows run over the canonical monomial
    basis of the target bidegree.  Entries are the generators' own Fraction
    coefficients.
    """
    columns, height = _multiples(generators, target,
                                 lambda g: list(g.terms.values()), Fraction(0))
    return RatMatrix([[col[i] for col in columns] for i in range(height)],
                     _trusted=True)


def multiple_rows(generators, target):
    """The multiples mu*g into bidegree `target`, as rows of integers.

    One row per column of mult_matrix(generators, target), in the same
    order, over the canonical monomial basis of the target.  Each generator
    is scaled once to coprime integer coefficients, which leaves the span of
    its multiples unchanged.
    """
    return _multiples(generators, target,
                      lambda g: primitive(g.terms.values()), 0)[0]


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
    multiple_rows gives them as rows, each scaled by a nonzero constant, so
    its rank is the rank of the map.
    """
    rows = multiple_rows(phi.a[:3], (2 * phi.m - 1, 2 * phi.n - 1))
    return 3 * phi.mn - integer_rank(rows, 4 * phi.mn)
