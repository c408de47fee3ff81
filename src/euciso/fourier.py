"""Harmonic analysis of periodic matrix-valued functions on the group.

A function of period N is a table over the normal forms of G mod T^N.
The transform pairs it with every irreducible of that quotient through
Kronecker blocks u(g) x rho(g); inversion is the finite-group inversion
applied blockwise and is validated by round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import isometry as iso
from .errors import IncompatibleShapes, IncompleteTable
from .groups import GroupSpec, NormalForm, QuotientGroup, build_quotient, normal_form
from .reps import Representation, quotient_irreps


class PeriodicFunction:
    """Matrix-valued function with period N, stored densely over G mod T^N."""

    def __init__(self, q: QuotientGroup, shape, values=None):
        self.q = q
        self.shape = (int(shape[0]), int(shape[1]))
        self.values: dict[int, np.ndarray] = {}
        if values:
            for i, v in values.items():
                self[i] = v

    def __getitem__(self, i: int) -> np.ndarray:
        v = self.values.get(i)
        if v is None:
            return np.zeros(self.shape, dtype=complex)
        return v

    def __setitem__(self, i: int, v) -> None:
        v = np.asarray(v, dtype=complex)
        if v.shape != self.shape:
            raise IncompatibleShapes(f"value shape {v.shape} != {self.shape}")
        self.values[int(i)] = v

    @property
    def N(self) -> int:
        return self.q.N

    @classmethod
    def delta(cls, q: QuotientGroup, i: int | None = None, shape=(1, 1)):
        u = cls(q, shape)
        u[q.identity if i is None else i] = np.eye(shape[0], shape[1])
        return u

    @classmethod
    def constant(cls, q: QuotientGroup, value):
        value = np.atleast_2d(np.asarray(value, dtype=complex))
        u = cls(q, value.shape)
        for i in q.elements:
            u[i] = value
        return u

    @classmethod
    def random(cls, q: QuotientGroup, shape=(1, 1), rng=None):
        rng = rng or np.random.default_rng(0)
        u = cls(q, shape)
        for i in q.elements:
            u[i] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return u

    def lift(self, N: int) -> "PeriodicFunction":
        """The same function viewed with a larger period (N a multiple)."""
        if N == self.N:
            return self
        fine = build_quotient(self.q.spec, N)
        out = PeriodicFunction(fine, self.shape)
        for i in fine.elements:
            out[i] = self[fine.project_index(self.q, i)]
        return out

    def max_abs_diff(self, other: "PeriodicFunction") -> float:
        worst = 0.0
        for i in self.q.elements:
            worst = max(worst, float(np.abs(self[i] - other[i]).max()))
        return worst


def _common_period(u: PeriodicFunction, v: PeriodicFunction):
    if u.q.spec is not v.q.spec:
        raise IncompatibleShapes("functions live on different groups")
    if u.N == v.N:
        return u, v
    import math
    N = math.lcm(u.N, v.N)
    return u.lift(N), v.lift(N)


def inner_product(u: PeriodicFunction, v: PeriodicFunction) -> complex:
    """Normalized Frobenius pairing over one set of coset representatives."""
    if u.shape != v.shape:
        raise IncompatibleShapes(f"shapes {u.shape} and {v.shape} differ")
    u, v = _common_period(u, v)
    acc = 0j
    for i in u.q.elements:
        acc += np.sum(u[i] * v[i].conj())
    return acc / u.q.order


@dataclass
class FourierTable:
    """Transform values per irreducible of G mod T^N."""

    q: QuotientGroup
    shape: tuple[int, int]
    seed: int
    entries: dict[int, np.ndarray] = field(default_factory=dict)

    def irreps(self) -> list[Representation]:
        return quotient_irreps(self.q, seed=self.seed)


def _dense_values(u: PeriodicFunction) -> np.ndarray:
    m, n = u.shape
    out = np.zeros((u.q.order, m, n), dtype=complex)
    for i, v in u.values.items():
        out[i] = v
    return out


def transform(u: PeriodicFunction, seed: int = 0) -> FourierTable:
    """u_hat(rho) = (1/|C_N|) sum_g u(g) (x) rho(g)."""
    reps = quotient_irreps(u.q, seed=seed)
    n = u.q.order
    m, mm = u.shape
    dense = _dense_values(u)
    entries = {}
    for ri, rho in enumerate(reps):
        d = rho.dim
        acc = np.einsum("gab,gij->aibj", dense, rho.mats)
        entries[ri] = acc.reshape(m * d, mm * d) / n
    return FourierTable(u.q, u.shape, seed, entries)


def inverse_transform(table: FourierTable) -> PeriodicFunction:
    """Blockwise finite-group inversion: u(g) = sum_rho d_rho tr(u_hat_ab rho(g)^H)."""
    reps = table.irreps()
    if set(table.entries) != set(range(len(reps))):
        raise IncompleteTable("table does not cover every irreducible")
    m, n = table.shape
    dense = np.zeros((table.q.order, m, n), dtype=complex)
    for ri, rho in enumerate(reps):
        d = rho.dim
        block = table.entries[ri].reshape(m, d, n, d)
        dense += rho.dim * np.einsum("aibj,gij->gab", block, rho.mats.conj())
    u = PeriodicFunction(table.q, table.shape)
    for g in table.q.elements:
        u[g] = dense[g]
    return u


def plancherel_pairing(t1: FourierTable, t2: FourierTable) -> complex:
    """sum_rho d_rho <u_hat(rho), v_hat(rho)> with the Frobenius pairing."""
    reps = t1.irreps()
    acc = 0j
    for ri, rho in enumerate(reps):
        acc += rho.dim * np.sum(t1.entries[ri] * t2.entries[ri].conj())
    return acc


def translate(u: PeriodicFunction, g: int) -> PeriodicFunction:
    """(tau_g u)(h) = u(h g)."""
    column = u.q.mult_table()[:, g].tolist()
    return PeriodicFunction(u.q, u.shape, {h: u.values[hg] for h, hg in enumerate(column)
                                           if hg in u.values})


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

    @classmethod
    def random(cls, spec: GroupSpec, shape=(1, 1), terms=5, span=5, rng=None):
        available = (2 * span + 1) ** spec.d2 * spec.f_order * spec.rot_order
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

    def project(self, q: QuotientGroup, nf: NormalForm) -> int:
        return q.index[NormalForm(tuple(x % q.N for x in nf.n), nf.f, nf.p)]

    def transform_at(self, rho: Representation, q: QuotientGroup) -> np.ndarray:
        """Unnormalized series sum_g u(g) (x) rho(g) over the finite support."""
        m, n = self.shape
        acc = np.zeros((m * rho.dim, n * rho.dim), dtype=complex)
        for nf, val in self.support.items():
            acc += np.kron(val, rho.matrix(self.project(q, nf)))
        return acc


def convolve(u: SummableFunction, v: PeriodicFunction) -> PeriodicFunction:
    """(u * v)(g) = sum_h u(h) v(h^-1 g); inherits the period of v."""
    if u.shape[1] != v.shape[0]:
        raise IncompatibleShapes(f"inner shapes {u.shape} / {v.shape} do not match")
    q = v.q
    out = PeriodicFunction(q, (u.shape[0], v.shape[1]))
    for nf, val in u.support.items():
        row = q.mult_table()[q.inv(u.project(q, nf))]
        for g in q.elements:
            out[g] = out[g] + val @ v[int(row[g])]
    return out
