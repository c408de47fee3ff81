"""Block arithmetic for Euclidean isometries.

An element of O(d1) + E(d2) is stored as three blocks:

  q    d1 x d1 float orthogonal matrix (tolerance-based equality),
  p    d2 x d2 integer matrix, the point part in lattice coordinates,
  tau  length-d2 tuple of Fractions, the translation in lattice coordinates.

The (p, tau) blocks are exact; all lattice and dual-lattice membership
tests downstream rely on that.  `Isometry(...)` validates and copies what
it is given; `compose` forms its product's blocks itself, the translation
as integer numerators over one denominator, and hands them over without
that pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import DimensionMismatch, EucisoError

DEFAULT_TOL = 1e-9
ORDER_BOUND = 48            # largest order of a point part that validation accepts

IntMatrix = tuple[tuple[int, ...], ...]
FracVector = tuple[Fraction, ...]


def frac_vector(values) -> FracVector:
    return tuple(Fraction(v) for v in values)


def _integer(x) -> int:
    value = int(x)
    if value != x:
        raise ValueError(f"point part entry {x!r} is not an integer")
    return value


def int_matrix(rows) -> IntMatrix:
    """Rows of integers; ValueError for an entry that is not integral (1.9, not 1)."""
    return tuple(tuple(_integer(x) for x in row) for row in rows)


def identity_int_matrix(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def pmat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = [*zip(*b)]
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def _minor(a: IntMatrix, i: int, j: int) -> IntMatrix:
    """a without row i and column j."""
    return tuple([row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i])


def pmat_det(a: IntMatrix) -> int:
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    det = 0
    for j, x in enumerate(a[0]):
        if x:
            det += (x if j % 2 == 0 else -x) * pmat_det(_minor(a, 0, j))
    return det


def pmat_inv(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a lattice point operation (determinant +-1): the
    adjugate, whose entries are integer cofactors, divided by det = +-1."""
    det = pmat_det(a)
    if det not in (1, -1):
        raise EucisoError(f"point part has determinant {det}, not a lattice map")
    n = len(a)
    return tuple([tuple([(det if (i + j) % 2 == 0 else -det) * pmat_det(_minor(a, j, i))
                         for j in range(n)]) for i in range(n)])


def pmat_order(a: IntMatrix, bound: int = ORDER_BOUND) -> int | None:
    """Multiplicative order of an integer matrix, or None past the bound."""
    ident = identity_int_matrix(len(a))
    power = a
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = pmat_mul(power, a)
    return None


def orth_deviation(q: np.ndarray) -> float:
    if q.size == 0:
        return 0.0
    return float(np.abs(q.T @ q - np.eye(q.shape[0])).max())


class Isometry:
    """One group element; immutable after construction.  The q block is a
    read-only copy, so the caller's array stays as it was."""

    __slots__ = ("q", "p", "tau")

    def __init__(self, q, p, tau):
        q = np.array(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionMismatch(f"q block must be square, got {q.shape}")
        p = int_matrix(p)
        if any(len(row) != len(p) for row in p):
            raise DimensionMismatch(f"p block must be square, got rows {p}")
        tau = frac_vector(tau)
        if len(p) != len(tau):
            raise DimensionMismatch("p block and tau disagree on d2")
        self._set(q, p, tau)

    def _set(self, q: np.ndarray, p: IntMatrix, tau: FracVector) -> None:
        q.setflags(write=False)
        self.q, self.p, self.tau = q, p, tau

    @property
    def d1(self) -> int:
        return self.q.shape[0]

    @property
    def d2(self) -> int:
        return len(self.tau)

    def __repr__(self):
        taus = ",".join(str(t) for t in self.tau)
        return f"Isometry(d1={self.d1}, p={self.p}, tau=({taus}))"


def identity_isometry(d1: int, d2: int) -> Isometry:
    return Isometry(np.eye(d1), identity_int_matrix(d2), (Fraction(0),) * d2)


def compose(g: Isometry, h: Isometry) -> Isometry:
    """Product g*h:  (A1,b1)(A2,b2) = (A1 A2, b1 + A1 b2), blockwise.

    b1 + A1 b2 is summed in integers, as numerators over the lcm of the
    operands' denominators and over the nonzero entries of A1 only, so it
    equals the Fraction sum exactly.  The product's q block is a fresh
    array, so the result takes its blocks without the constructor's copy
    and checks."""
    if g.d1 != h.d1 or g.d2 != h.d2:
        raise DimensionMismatch("cannot compose isometries of different block dims")
    den = math.lcm(*[t.denominator for t in g.tau + h.tau])
    b2 = [t.numerator * (den // t.denominator) for t in h.tau]
    tau = tuple(Fraction(t.numerator * (den // t.denominator)
                         + sum(a * b for a, b in zip(row, b2) if a), den)
                for t, row in zip(g.tau, g.p))
    out = Isometry.__new__(Isometry)
    out._set(g.q @ h.q, pmat_mul(g.p, h.p), tau)
    return out


def approx_equal(g: Isometry, h: Isometry, tol: float = DEFAULT_TOL) -> bool:
    """Exact equality on (p, tau), max-norm tolerance on q."""
    if g.d1 != h.d1 or g.d2 != h.d2:
        raise DimensionMismatch("cannot compare isometries of different block dims")
    if g.p != h.p or g.tau != h.tau:
        return False
    if g.d1 == 0:
        return True
    return float(np.abs(g.q - h.q).max()) <= tol


def rotation2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def block_diag(*blocks) -> np.ndarray:
    mats = [np.asarray(b, dtype=float) for b in blocks]
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at:at + k, at:at + k] = m
        at += k
    return out
