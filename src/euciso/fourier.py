"""Harmonic analysis of periodic matrix-valued functions on the group.

A function of period N is one (|G mod T^N|, m, n) array in element id order.
The transform pairs it with every irreducible of that quotient through
Kronecker blocks u(g) x rho(g), in the one basis of the quotient's
irreducibles: the dual atlas's (`dual.enumerate_dual`), which each table
holds, not the regular-representation solver's, which serves only the
rep-set candidates at m0 and the oracles.  Inversion is the finite-group
inversion applied blockwise and is validated by round trips.  The dense
transform is a product with the group's Fourier matrix (Clausen and Baum,
Fast Fourier Transforms, 1993): the atlas holds the k irreducibles of each
dimension d as one (n, k, d, d) array (`DualAtlas.stacks`), built once per
quotient and seed; the basis is sorted by dimension first, so those
arrays, in ascending d, are the basis in order.  The transform and the
inverse make one matrix product per irreducible dimension on it as it is,
and copy no stack.  A table is laid out the same way: one (k, m d, n d)
array of values per dimension, which the transform stores as its product
leaves it and the inverse reads back with one copy of one dimension at a
time.  A finitely supported function's series, which the convolution
identity checks, reads the same stacks: one Kronecker accumulation per
dimension and support term.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .dual import DualAtlas, enumerate_dual
from .errors import IncompatibleShapes
# normal_form is unused here; perfbench's tests check that its tracer wraps this copy
from .groups import GroupSpec, NormalForm, QuotientGroup, build_quotient, normal_form  # noqa: F401


class PeriodicFunction:
    """Matrix-valued function with period N on G mod T^N.

    `values` is one (q.order, m, n) complex array; row i is the value at
    element id i.
    """

    def __init__(self, q: QuotientGroup, shape, values=None):
        self.q = q
        self.shape = (int(shape[0]), int(shape[1]))
        full = (q.order, *self.shape)
        values = np.zeros(full, dtype=complex) if values is None else values
        values = np.asarray(values, dtype=complex)
        if values.shape != full:
            raise IncompatibleShapes(f"values shape {values.shape} != {full}")
        self.values = values

    def __getitem__(self, i: int) -> np.ndarray:
        return self.values[i]

    def __setitem__(self, i: int, v) -> None:
        v = np.asarray(v, dtype=complex)
        if v.shape != self.shape:
            raise IncompatibleShapes(f"value shape {v.shape} != {self.shape}")
        self.values[i] = v

    @property
    def N(self) -> int:
        return self.q.N

    @classmethod
    def delta(cls, q: QuotientGroup, i: int | None = None, shape=(1, 1)):
        u = cls(q, shape)
        u.values[q.identity if i is None else i] = np.eye(shape[0], shape[1])
        return u

    @classmethod
    def constant(cls, q: QuotientGroup, value):
        value = np.atleast_2d(np.asarray(value, dtype=complex))
        return cls(q, value.shape, np.repeat(value[None], q.order, axis=0))

    @classmethod
    def random(cls, q: QuotientGroup, shape=(1, 1), rng=None):
        """Per element in id order, a real then an imaginary standard normal block."""
        rng = rng or np.random.default_rng(0)
        draw = rng.standard_normal((q.order, 2, *shape))
        return cls(q, shape, draw[:, 0] + 1j * draw[:, 1])

    def lift(self, N: int) -> "PeriodicFunction":
        """The same function viewed with a larger period (N a multiple)."""
        if N == self.N:
            return self
        fine = build_quotient(self.q.spec, N)
        return PeriodicFunction(fine, self.shape, self.values[fine.projection(self.q)])

    def max_abs_diff(self, other: "PeriodicFunction") -> float:
        u, v = _common_period(self, other)
        return float(np.abs(u.values - v.values).max())


def _common_period(u: PeriodicFunction, v: PeriodicFunction):
    if u.q.spec is not v.q.spec:
        raise IncompatibleShapes("functions live on different groups")
    if u.N == v.N:
        return u, v
    N = math.lcm(u.N, v.N)
    return u.lift(N), v.lift(N)


def inner_product(u: PeriodicFunction, v: PeriodicFunction) -> complex:
    """Normalized Frobenius pairing over one set of coset representatives."""
    if u.shape != v.shape:
        raise IncompatibleShapes(f"shapes {u.shape} and {v.shape} differ")
    u, v = _common_period(u, v)
    # block sums first, then their running sum in id order: this order fixes
    # the last digits that `fourier --check` and `verify` print
    block_sums = (u.values * v.values.conj()).reshape(u.q.order, -1).sum(axis=1)
    return np.cumsum(block_sums)[-1] / u.q.order


@dataclass
class FourierTable:
    """The transform of one function of shape (m, n) in its atlas's basis.

    `stacks[d]` is one (k, m d, n d) complex array per irreducible dimension
    d, in the order of `atlas.stacks`: the values at the k irreducibles of
    `atlas.stacks[d]`, in their order, so the stacks taken in turn are the
    basis order.  `entries` maps each basis index to its (m d, n d) value, a
    view into its dimension's stack; the mapping is read-only, so a table
    always covers every irreducible.
    """

    atlas: DualAtlas
    shape: tuple[int, int]
    stacks: dict[int, np.ndarray]

    @property
    def q(self) -> QuotientGroup:
        return self.atlas.q

    @functools.cached_property
    def entries(self) -> Mapping[int, np.ndarray]:
        return MappingProxyType(dict(enumerate(
            value for d in self.atlas.stacks for value in self.stacks[d])))


def transform(u: PeriodicFunction, seed: int = 0) -> FourierTable:
    """u_hat(rho) = (1/|C_N|) sum_g u(g) (x) rho(g)."""
    atlas = enumerate_dual(u.q.spec, u.q.N, seed)
    n = u.q.order
    m, mm = u.shape
    flat = u.values.reshape(n, m * mm)
    stacks = {}
    for d, stack in atlas.stacks.items():
        k = stack.shape[1]
        acc = (flat.T @ stack.reshape(n, -1) / n).reshape(m, mm, k, d, d)
        acc = np.ascontiguousarray(acc.transpose(2, 0, 3, 1, 4))
        stacks[d] = acc.reshape(k, m * d, mm * d)
    return FourierTable(atlas, u.shape, stacks)


def inverse_transform(table: FourierTable) -> PeriodicFunction:
    """Blockwise finite-group inversion: u(g) = sum_rho d_rho tr(u_hat_ab rho(g)^H)."""
    m, n = table.shape
    order = table.q.order
    dense = np.zeros((order, m * n), dtype=complex)
    term = np.empty_like(dense)
    for d, stack in table.atlas.stacks.items():
        # the one copy of a dimension's values, conjugated in place; then
        # conj(rho) @ b as conj(rho @ conj(b)), so the shared stack stays as it is
        blocks = table.stacks[d].reshape(-1, m, d, n, d).transpose(0, 2, 4, 1, 3).copy()
        np.conj(blocks, out=blocks)
        np.matmul(stack.reshape(order, -1), blocks.reshape(-1, m * n), out=term)
        del blocks      # before the next dimension's copy is made
        np.conj(term, out=term)
        term *= d
        dense += term
    return PeriodicFunction(table.q, table.shape, dense.reshape(-1, m, n))


def plancherel_pairing(t1: FourierTable, t2: FourierTable) -> complex:
    """sum_rho d_rho <u_hat(rho), v_hat(rho)> with the Frobenius pairing, in
    basis order; IncompatibleShapes unless both tables share quotient, shape
    and basis."""
    if t1.q is not t2.q or t1.shape != t2.shape or t1.atlas.basis != t2.atlas.basis:
        raise IncompatibleShapes("tables differ in quotient, shape or irreducible basis")
    e1, e2 = t1.entries, t2.entries
    return sum(d * np.vdot(e2[ri], e1[ri]) for ri, d in enumerate(t1.atlas.dims))


def translate(u: PeriodicFunction, g: int) -> PeriodicFunction:
    """(tau_g u)(h) = u(h g)."""
    return PeriodicFunction(u.q, u.shape, u.values[u.q.products(u.q.local, g)])


class SummableFunction:
    """Finitely supported function on the full group (unbounded exponents)."""

    def __init__(self, spec: GroupSpec, shape, support=None):
        self.spec = spec
        self.shape = (int(shape[0]), int(shape[1]))
        self.support: dict[NormalForm, np.ndarray] = {}
        if support:
            for nf, v in support.items():
                self[nf] = v

    def __setitem__(self, nf: NormalForm, v) -> None:
        v = np.asarray(v, dtype=complex)
        if v.shape != self.shape:
            raise IncompatibleShapes(f"value shape {v.shape} != {self.shape}")
        self.support[nf] = v

    @staticmethod
    def available(spec: GroupSpec, span: int) -> int:
        """How many normal forms have every exponent in [-span, span]."""
        return (2 * span + 1) ** spec.d2 * spec.f_order * spec.rot_order

    @classmethod
    def random(cls, spec: GroupSpec, shape=(1, 1), terms=5, span=5, rng=None):
        available = cls.available(spec, span)
        if terms > available:
            raise ValueError(f"{terms} terms exceed the {available} normal forms "
                             f"within span {span}")
        rng = rng or np.random.default_rng(0)
        u = cls(spec, shape)
        while len(u.support) < terms:
            n = tuple(int(rng.integers(-span, span + 1)) for _ in range(spec.d2))
            nf = NormalForm(n, int(rng.integers(spec.f_order)),
                            int(rng.integers(spec.rot_order)))
            u[nf] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return u

    def transform_at(self, atlas: DualAtlas) -> dict[int, np.ndarray]:
        """Unnormalized series sum_g u(g) (x) rho(g) over the finite support,
        keyed by each irreducible's index in the atlas's basis.  Each
        dimension's stack takes the terms in support order, from zeros."""
        q, (m, n) = atlas.q, self.shape
        ids = q.ids_of(self.support)
        out = []
        for d, stack in atlas.stacks.items():
            acc = np.zeros((stack.shape[1], m * d, n * d), dtype=complex)
            for g, val in zip(ids, self.support.values()):
                acc += kron_stack(val, stack[g])
            out.extend(acc)
        return dict(enumerate(out))


def kron_stack(a: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """a (x) mats[j] for each matrix of the (k, d, d) stack, as one (k, m d, n d)
    array whose every entry is the one product a_il mats[j]_bc, as np.kron forms it."""
    (m, n), (k, d, _) = a.shape, mats.shape
    return (a[None, :, None, :, None] * mats[:, None, :, None, :]).reshape(k, m * d, n * d)


def convolve(u: SummableFunction, v: PeriodicFunction) -> PeriodicFunction:
    """(u * v)(g) = sum_h u(h) v(h^-1 g); inherits the period of v."""
    if u.shape[1] != v.shape[0]:
        raise IncompatibleShapes(f"inner shapes {u.shape} / {v.shape} do not match")
    q = v.q
    out = np.zeros((q.order, u.shape[0], v.shape[1]), dtype=complex)
    for h, val in zip(q.inverses(q.ids_of(u.support)), u.support.values()):
        out += val @ v.values[q.products(h, q.local)]
    return PeriodicFunction(q, (u.shape[0], v.shape[1]), out)
