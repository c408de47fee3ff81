"""Semidirect splittings of the finite quotients.

The corrected point-group lift moves each coset representative p by an
integer combination c_p of cocycle values, to t(c_p)*p; for exponents
coprime to the point-group order the lifted set, together with n-th
section powers and the kernel, complements the central translation block
inside G mod T^(nm).  Every member is a normal form t(n)*f*p or a quotient
id, and nothing here is a float: a lift t(c_p)*p is a normal form as it
stands, and the normal part's powers t(v)^m are products of ids.  The
normal part and the complement are `SubgroupView`s of the quotient, whose
members are ids.  Certificates are verified by exhaustive enumeration over
the parts they name: each check asks `QuotientGroup.products` for the
products it reads, so the quotient's multiplication table is built only
where a check reads a large share of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadModulus, IntegralityViolation, InternalInconsistency, NotCoprime
# normal_form is unused here; perfbench's tests check that its tracer wraps this copy
from .groups import (GroupSpec, NormalForm, QuotientGroup, SubgroupView,  # noqa: F401
                     build_quotient, find_m0, grid_points, normal_form)


def _coboundary(spec: GroupSpec, tau: np.ndarray) -> np.ndarray:
    """tau_a + P_a tau_b - tau_ab for every pair of p_reps indices (a, b).

    tau is a (|P|, d2) integer stack, one translation per p_rep in p_reps
    order, each scaled by the denominator D of `spec.points`.
    """
    _, p_mat, _, _ = spec.points
    return tau[:, None] + np.einsum("aij,bj->abi", p_mat, tau) - tau[spec.p_mul_table()]


def cocycle(spec: GroupSpec) -> np.ndarray:
    """tau(P_a) + P_a tau(P_b) - tau(P_a P_b) as a (|P|, |P|, d2) integer array.

    Indexed by p_reps indices; the values lie in the lattice L.
    """
    d, _, p_tau, _ = spec.points
    z = _coboundary(spec, p_tau)
    bad = np.argwhere((z % d).any(axis=2))
    if len(bad):
        a, b = bad[0].tolist()
        raise IntegralityViolation(f"cocycle value {z[a, b].tolist()}/{d} for p_reps "
                                   f"{a}, {b} is not integral")
    return z // d


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
    """Lifted corrected point set: the normal form of t(c_p)*p for each p_rep p,
    in p_reps order."""

    spec: GroupSpec
    n: int
    a: int
    elements: list[NormalForm]


def complement_set(spec: GroupSpec, n: int) -> ComplementSet:
    """Lift of the corrected point group for an exponent n coprime to its order.

    Each p_rep p is premultiplied by the section value t(c_p) of the integer
    correction c_p = -a(n) * sum_Q cocycle(P, Q), so its projection carries
    the corrected translation part.  The lift t(c_p)*p is the normal form
    (c_p, f_identity, p), with c_p unreduced.
    """
    r = spec.rot_order
    if math.gcd(n, r) != 1:
        raise NotCoprime(f"n={n} shares a factor with the point group order {r}")
    a = a_coeff(n, r)
    corr = -a * cocycle(spec).sum(axis=1)
    comp = ComplementSet(spec, n, a, [NormalForm(tuple(c), spec.f_identity, p)
                                      for p, c in enumerate(corr.tolist())])
    _check_projection_closure(spec, comp)
    return comp


def _check_projection_closure(spec: GroupSpec, comp: ComplementSet) -> None:
    """Projected products must stay in T_S^n * P_S^(n)."""
    d, _, p_tau, _ = spec.points
    n = np.array([g.n for g in comp.elements], dtype=np.int64).reshape(spec.rot_order, spec.d2)
    tau = d * n + p_tau[[g.p for g in comp.elements]]
    if (_coboundary(spec, tau) % (d * comp.n)).any():
        raise InternalInconsistency(
            "projected complement is not closed modulo n-th translations")


@dataclass
class CheckResult:
    """One named check of a split certificate or of the `verify` suite."""

    name: str
    passed: bool
    detail: str = ""


class Checked:
    """A record of checks, which passes when every one of them does."""

    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class SplitCertificate(Checked):
    spec_name: str
    m: int
    n: int
    N: int
    a: int
    normal_order: int
    complement_order: int
    group_order: int
    direct_product: bool
    checks: list[CheckResult]
    normal_part: list[NormalForm]
    complement_part: list[NormalForm]


def _block(view: SubgroupView) -> np.ndarray:
    """The products a*b of the members, a (rows) and b (columns)."""
    return view.parent.products(view.elements[:, None], view.elements)


def _conjugates(view: SubgroupView) -> np.ndarray:
    """g * a * g^-1 for every quotient generator g (rows) and member a (columns)."""
    q, gens = view.parent, view.parent.generators
    return q.products(q.products(gens[:, None], view.elements), q.inverses(gens)[:, None])


def _meet(a: SubgroupView, b: SubgroupView) -> int:
    """The order of the intersection of two views of one quotient."""
    return int(np.count_nonzero((a.local >= 0) & (b.local >= 0)))


def _forms(view: SubgroupView) -> list[NormalForm]:
    """The normal forms of a view's members, in id order, which is (n, f, p) order."""
    n, f, p = view.parent.parts(view.elements)
    return list(map(NormalForm, map(tuple, n.tolist()), f.tolist(), p.tolist()))


def _power(q: QuotientGroup, x: np.ndarray, m: int) -> np.ndarray:
    """x^m for an id array x and m >= 1, by squaring: one `q.products`
    request per bit of m after the first and one per further set bit."""
    power = x
    for bit in bin(m)[3:]:
        power = q.products(power, power)
        if bit == "1":
            power = q.products(power, x)
    return power


def split_quotient(spec: GroupSpec, m: int, n: int) -> SplitCertificate:
    """Certificate for G mod T^(nm) = (T^m part) x| (complement part).

    The normal factor is the image of m-th section powers t(v)^m, v in
    [0, n)^d2, raised from the ids of t(v) by `_power`; the complement is
    generated by n-th section powers t(e_i)^n = t(n e_i), the kernel, and
    the corrected point lifts.  Every property is checked by
    enumeration of the products it reads; orders above DEFAULT_CAP are
    refused before anything order-sized is built.
    """
    if m < 1 or n < 1:
        raise BadModulus(f"m={m} and n={n} must be positive")
    m0 = find_m0(spec).m0
    if m % m0 != 0:
        raise BadModulus(f"m={m} is not a multiple of m0={m0}")
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"m={m} and n={n} share a factor")
    if math.gcd(n, spec.rot_order) != 1:
        raise NotCoprime(f"n={n} shares a factor with the point group order")
    N = n * m
    q = build_quotient(spec, N)
    q.check_cap()
    checks: list[CheckResult] = []

    # normal factor: the m-th section powers mod N
    d2, one_p = spec.d2, spec.p_identity
    sections = q.ids(grid_points(n, d2), spec.f_identity, one_p)
    normal = SubgroupView(q, _power(q, sections, m))
    checks.append(CheckResult("normal-order", normal.order == n ** spec.d2,
                              f"{normal.order} vs n^d2 = {n ** spec.d2}"))
    block = _block(normal)
    checks.append(CheckResult("normal-closed", normal.holds(block)))
    checks.append(CheckResult("normal-abelian", bool((block == block.T).all())))
    power = _power(q, normal.elements, n)
    checks.append(CheckResult("normal-exponent", bool((power == q.identity).all()), f"x^{n} = id"))
    checks.append(CheckResult("normal-invariant", normal.holds(_conjugates(normal))))

    comp = complement_set(spec, n)
    complement = SubgroupView.generated(q, np.concatenate([
        q.ids_of(comp.elements), q.ids(n * np.eye(d2, dtype=np.int64), spec.f_identity, one_p),
        q.ids(np.zeros(d2, dtype=np.int64), range(spec.f_order), one_p)]))
    want = (m ** spec.d2) * spec.f_order * spec.rot_order
    checks.append(CheckResult("complement-order", complement.order == want,
                              f"{complement.order} vs |F||rot| m^d2 = {want}"))

    meet = _meet(normal, complement)
    checks.append(CheckResult("trivial-intersection", meet == 1, f"|intersection| = {meet}"))
    checks.append(CheckResult("order-product",
                              normal.order * complement.order == q.order,
                              f"{normal.order} * {complement.order} = {q.order}"))

    direct = (complement.holds(_conjugates(complement)) and meet == 1
              and normal.order * complement.order == q.order)

    return SplitCertificate(
        spec_name=spec.name, m=m, n=n, N=N, a=comp.a,
        normal_order=normal.order, complement_order=complement.order,
        group_order=q.order, direct_product=direct, checks=checks,
        normal_part=_forms(normal), complement_part=_forms(complement))


def verify_certificate(spec: GroupSpec, cert: SplitCertificate) -> bool:
    """Re-derive every certificate claim from scratch.

    N = m n, and the orders follow from (m, n) alone: n^d2 for the normal
    part and m^d2 |F| |P| for the complement, whose product is the order
    N^d2 |F| |P| of the quotient.  Each part is read as a view, so a normal
    form named twice counts once and a part without the identity is no
    subgroup.  Both parts must be closed under products, so that they are
    subgroups, the normal part under conjugation by the generators too, and
    they must meet only in the identity.
    """
    if cert.N != cert.m * cert.n:
        return False
    q = build_quotient(spec, cert.N)
    parts = [q.ids_of(part) for part in (cert.normal_part, cert.complement_part)]
    if any(q.identity not in ids for ids in parts):
        return False
    normal, complement = (SubgroupView(q, ids) for ids in parts)
    orders = (cert.n ** spec.d2, cert.m ** spec.d2 * spec.f_order * spec.rot_order)
    if ((normal.order, complement.order) != orders
            or (cert.normal_order, cert.complement_order, cert.group_order) != (*orders, q.order)):
        return False
    return (normal.holds(_block(normal)) and normal.holds(_conjugates(normal))
            and complement.holds(_block(complement)) and _meet(normal, complement) == 1)
