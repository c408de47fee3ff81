"""Semidirect splittings of the finite quotients.

The corrected point-group lift moves each coset representative by an
integer combination of cocycle values; for exponents coprime to the
point-group order the lifted set, together with n-th section powers and
the kernel, complements the central translation block inside G mod T^(nm).
Certificates are verified by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import isometry as iso
from .errors import (BadModulus, IntegralityViolation, InternalInconsistency,
                     NotCoprime)
from .groups import (GroupSpec, NormalForm, QuotientGroup, build_quotient,
                     find_m0, is_member, normal_form)
from .isometry import Isometry
from .reps import _quotient_generators

FracVec = tuple[Fraction, ...]


@dataclass
class SectionTau:
    """Translation part assigned to each point-group matrix, read off p_reps."""

    spec: GroupSpec
    values: dict[iso.IntMatrix, FracVec]

    def __getitem__(self, p: iso.IntMatrix) -> FracVec:
        return self.values[p]


def section_tau(spec: GroupSpec) -> SectionTau:
    return SectionTau(spec, {p.p: p.tau for p in spec.p_reps})


@dataclass
class CocycleTable:
    """tau(P) + P tau(Q) - tau(PQ) per point-part pair; values lie in L."""

    spec: GroupSpec
    values: dict[tuple[iso.IntMatrix, iso.IntMatrix], tuple[int, ...]]

    def __getitem__(self, key) -> tuple[int, ...]:
        return self.values[key]


def cocycle(spec: GroupSpec) -> CocycleTable:
    tau = section_tau(spec)
    values = {}
    for a in spec.p_reps:
        for b in spec.p_reps:
            ab = iso.pmat_mul(a.p, b.p)
            vec = tuple(x + y - z for x, y, z in
                        zip(tau[a.p], iso.pmat_vec(a.p, tau[b.p]), tau[ab]))
            if any(v.denominator != 1 for v in vec):
                raise IntegralityViolation(
                    f"cocycle value {vec} for a pair of point parts is not integral")
            values[(a.p, b.p)] = tuple(int(v) for v in vec)
    return CocycleTable(spec, values)


def a_coeff(n: int, r: int) -> int:
    """Largest nonpositive a with a*r + b*n = 1 solvable over the integers."""
    if n < 1 or r < 1:
        raise ValueError("arguments must be positive")
    if math.gcd(n, r) != 1:
        raise NotCoprime(f"gcd({n}, {r}) != 1")
    if n == 1:
        return 0
    inv = pow(r, -1, n)
    return inv - n if inv > 0 else 0


@dataclass
class ComplementSet:
    """Lifted corrected point set; one element per point-group matrix."""

    spec: GroupSpec
    n: int
    a: int
    elements: list[Isometry]
    corrections: dict[iso.IntMatrix, tuple[int, ...]] = field(default_factory=dict)


def complement_set(spec: GroupSpec, n: int) -> ComplementSet:
    """Lift of the corrected point group for an exponent n coprime to its order.

    Each p_rep is premultiplied by the section value of the integer
    correction -a(n) * sum_Q cocycle(P, Q), so its projection carries the
    corrected translation part.
    """
    r = spec.rot_order
    if math.gcd(n, r) != 1:
        raise NotCoprime(f"n={n} shares a factor with the point group order {r}")
    a = a_coeff(n, r)
    table = cocycle(spec)
    out, corrections = [], {}
    for p in spec.p_reps:
        corr = tuple(-a * sum(table[(p.p, q.p)][i] for q in spec.p_reps)
                     for i in range(spec.d2))
        lifted = iso.compose(spec.section(corr), p)
        if not is_member(spec, lifted):
            raise InternalInconsistency("corrected lift left the group")
        out.append(lifted)
        corrections[p.p] = corr
    comp = ComplementSet(spec, n, a, out, corrections)
    _check_projection_closure(spec, comp)
    return comp


def _check_projection_closure(spec: GroupSpec, comp: ComplementSet) -> None:
    """Projected products must stay in T_S^n * P_S^(n)."""
    proj = {}
    for g in comp.elements:
        proj[g.p] = g.tau
    for g in comp.elements:
        for h in comp.elements:
            p = iso.pmat_mul(g.p, h.p)
            tau = tuple(x + y for x, y in zip(g.tau, iso.pmat_vec(g.p, h.tau)))
            resid = tuple(x - y for x, y in zip(tau, proj[p]))
            if any(v.denominator != 1 or int(v) % comp.n != 0 for v in resid):
                raise InternalInconsistency(
                    "projected complement is not closed modulo n-th translations")


@dataclass
class SplitCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SplitCertificate:
    spec_name: str
    m: int
    n: int
    N: int
    a: int
    normal_order: int
    complement_order: int
    group_order: int
    direct_product: bool
    checks: list[SplitCheck]
    normal_part: list[NormalForm]
    complement_part: list[NormalForm]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _closure(q: QuotientGroup, seeds) -> set[int]:
    """The subgroup generated by seeds: add products of members until none is new."""
    out = set(seeds) | {q.identity}
    while True:
        grown = out | set(_products(q, out, out).ravel().tolist())
        if len(grown) == len(out):
            return out
        out = grown


def _products(q: QuotientGroup, left, right) -> np.ndarray:
    """The table block of products a*b, a in left, b in right."""
    return q.mult_table()[np.ix_(list(left), list(right))]


def _conjugates(q: QuotientGroup, gens, ids) -> np.ndarray:
    """g * a * g^-1 for every generator g (rows) and every a in ids (columns)."""
    return q.mult_table()[_products(q, gens, ids), [[q.inv(g)] for g in gens]]


def _inside(ids: np.ndarray, subset) -> bool:
    """True iff every id in the array lies in subset."""
    return bool(np.isin(ids, list(subset)).all())


def split_quotient(spec: GroupSpec, m: int, n: int) -> SplitCertificate:
    """Certificate for G mod T^(nm) = (T^m part) x| (complement part).

    The normal factor is the image of m-th section powers; the complement
    is generated by n-th section powers, the kernel, and the corrected
    point lifts.  Every property is checked by enumeration.
    """
    m0 = find_m0(spec).m0
    if m % m0 != 0:
        raise BadModulus(f"m={m} is not a multiple of m0={m0}")
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"m={m} and n={n} share a factor")
    if math.gcd(n, spec.rot_order) != 1:
        raise NotCoprime(f"n={n} shares a factor with the point group order")
    N = n * m
    q = build_quotient(spec, N)
    table = q.mult_table()
    checks: list[SplitCheck] = []

    # normal factor: the m-th section powers mod N
    normal = set()
    for vec in itertools.product(range(n), repeat=spec.d2):
        el = q.reduce(normal_form(spec, iso.power(spec.section(vec), m)))
        normal.add(el)
    checks.append(SplitCheck("normal-order", len(normal) == n ** spec.d2,
                             f"{len(normal)} vs n^d2 = {n ** spec.d2}"))
    block = _products(q, normal, normal)
    checks.append(SplitCheck("normal-closed", _inside(block, normal)))
    checks.append(SplitCheck("normal-abelian", bool((block == block.T).all())))
    power = np.full(len(normal), q.identity)
    for _ in range(n):
        power = table[power, list(normal)]
    checks.append(SplitCheck("normal-exponent", bool((power == q.identity).all()), f"x^{n} = id"))
    gens = _quotient_generators(q)
    checks.append(SplitCheck("normal-invariant",
                             _inside(_conjugates(q, gens, normal), normal)))

    comp = complement_set(spec, n)
    seeds = [q.reduce(normal_form(spec, g)) for g in comp.elements]
    for i in range(spec.f_order):
        seeds.append(q.index[NormalForm((0,) * spec.d2, i, spec.p_identity)])
    for i in range(spec.d2):
        e = [0] * spec.d2
        e[i] = 1
        seeds.append(q.reduce(normal_form(spec, iso.power(spec.section(e), n))))
    complement = _closure(q, seeds)
    want = (m ** spec.d2) * spec.f_order * spec.rot_order
    checks.append(SplitCheck("complement-order", len(complement) == want,
                             f"{len(complement)} vs |F||rot| m^d2 = {want}"))

    inter = normal & complement
    checks.append(SplitCheck("trivial-intersection", inter == {q.identity},
                             f"|intersection| = {len(inter)}"))
    checks.append(SplitCheck("order-product",
                             len(normal) * len(complement) == q.order,
                             f"{len(normal)} * {len(complement)} = {q.order}"))

    comp_normal = _inside(_conjugates(q, gens, complement), complement)
    direct = bool(comp_normal and inter == {q.identity}
                  and len(normal) * len(complement) == q.order)

    return SplitCertificate(
        spec_name=spec.name, m=m, n=n, N=N, a=comp.a,
        normal_order=len(normal), complement_order=len(complement),
        group_order=q.order, direct_product=direct, checks=checks,
        normal_part=sorted((q.nf(i) for i in normal),
                           key=lambda nf: (nf.n, nf.f, nf.p)),
        complement_part=sorted((q.nf(i) for i in complement),
                               key=lambda nf: (nf.n, nf.f, nf.p)))


def verify_certificate(spec: GroupSpec, cert: SplitCertificate) -> bool:
    """Re-derive every certificate claim from scratch."""
    q = build_quotient(spec, cert.N)
    normal = {q.index[nf] for nf in cert.normal_part}
    complement = {q.index[nf] for nf in cert.complement_part}
    if len(normal) != cert.normal_order or len(complement) != cert.complement_order:
        return False
    gens = _quotient_generators(q)
    if not _inside(_conjugates(q, gens, normal), normal):
        return False
    if not _inside(_products(q, complement, complement), complement):
        return False
    if normal & complement != {q.identity}:
        return False
    return len(normal) * len(complement) == q.order


def find_involution(spec: GroupSpec, bound: int = 2):
    """Search for a non-identity element of order two with bounded exponents.

    Returns a witness isometry or None; a space group with a coset of
    order two in its point group but no such element cannot split over
    its translations.
    """
    ident = iso.identity_isometry(spec.d1, spec.d2)
    for vec in itertools.product(range(-bound, bound + 1), repeat=spec.d2):
        for f in range(spec.f_order):
            for p in range(spec.rot_order):
                g = iso.compose(iso.compose(spec.section(vec),
                                            spec.f_iso(f)), spec.p_reps[p])
                if iso.approx_equal(g, ident, spec.tol):
                    continue
                if iso.approx_equal(iso.compose(g, g), ident, spec.tol):
                    return g
    return None
