"""Semidirect splittings of the finite quotients.

The corrected point-group lift moves each coset representative p by an
integer combination c_p of cocycle values, to t(c_p)*p; for exponents
coprime to the point-group order the lifted set, together with n-th
section powers and the kernel, complements the central translation block
inside G mod T^(nm).  Every member is handled as in `groups`: a stack of
q blocks, with translations as integers over the denominator D of
`spec.points`, factored by `normal_forms`, or a quotient id.  Certificates
are verified by exhaustive enumeration over the parts they name: each check
asks `QuotientGroup.products` for the products it reads, so the quotient's
multiplication table is built only where a check reads a large share of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadModulus, IntegralityViolation, InternalInconsistency,
                     NotAMember, NotCoprime)
# normal_form is unused here; perfbench's tests check that its tracer wraps this copy
from .groups import (GroupSpec, NormalForm, QuotientGroup, build_quotient,  # noqa: F401
                     find_m0, grid_points, normal_form, normal_forms)


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
    the corrected translation part.  The lifts t(c_p)*p, with q blocks
    section_q(c_p) q(p) and translations D c_p + tau_p, are factored as one
    `normal_forms` stack.
    """
    r = spec.rot_order
    if math.gcd(n, r) != 1:
        raise NotCoprime(f"n={n} shares a factor with the point group order {r}")
    a = a_coeff(n, r)
    corr = -a * cocycle(spec).sum(axis=1)
    d, _, p_tau, p_q = spec.points
    try:
        c, f = normal_forms(spec, spec.section_q(corr) @ p_q, range(r), d * corr + p_tau)
    except NotAMember as exc:
        raise InternalInconsistency("corrected lift left the group") from exc
    comp = ComplementSet(spec, n, a, [NormalForm(tuple(row), fi, p)
                                      for p, (row, fi) in enumerate(zip(c.tolist(), f.tolist()))])
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
    """The subgroup generated by seeds: multiply the members found last by
    the seeds until none is new.  In a finite group the words in the seeds
    are the subgroup they generate."""
    seeds = set(seeds)
    out = seeds | {q.identity}
    frontier = out
    while frontier:
        frontier = set(_products(q, frontier, seeds).ravel().tolist()) - out
        out |= frontier
    return out


def _products(q: QuotientGroup, left, right) -> np.ndarray:
    """The block of products a*b, a in left (rows), b in right (columns)."""
    return q.products(np.array(list(left), dtype=np.int64)[:, None],
                      np.array(list(right), dtype=np.int64))


def _generators(q: QuotientGroup) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the quotient's generators and of their inverses."""
    gens = np.array(q.generators())
    return gens, q.inverses(gens)


def _conjugates(q: QuotientGroup, generators, ids) -> np.ndarray:
    """g * a * g^-1 for every generator g (rows) and every a in ids (columns),
    with generators as `_generators` gives them."""
    gens, inverses = generators
    return q.products(_products(q, gens, ids), inverses[:, None])


def _mask(q: QuotientGroup, subset) -> np.ndarray:
    """The boolean mask over the quotient's ids of a set of ids."""
    mask = np.zeros(q.order, dtype=bool)
    mask[np.fromiter(subset, np.int64, len(subset))] = True
    return mask


def _inside(ids: np.ndarray, mask: np.ndarray) -> bool:
    """True iff every id in the array lies in the subset that `_mask` gives as mask."""
    return bool(mask[ids].all())


def _forms(q: QuotientGroup, subset) -> list[NormalForm]:
    """The normal forms of a set of ids, in id order, which is (n, f, p) order."""
    n, f, p = q.parts(np.sort(np.fromiter(subset, np.int64, len(subset))))
    return [NormalForm(tuple(row), fi, pi)
            for row, fi, pi in zip(n.tolist(), f.tolist(), p.tolist())]


def _ids(q: QuotientGroup, forms: list[NormalForm]) -> set[int]:
    """The ids of a list of normal forms, by one `QuotientGroup.ids` call."""
    n = np.array([nf.n for nf in forms], dtype=np.int64).reshape(len(forms), q.spec.d2)
    return set(q.ids(n, [nf.f for nf in forms], [nf.p for nf in forms]).tolist())


def split_quotient(spec: GroupSpec, m: int, n: int) -> SplitCertificate:
    """Certificate for G mod T^(nm) = (T^m part) x| (complement part).

    The normal factor is the image of m-th section powers t(v)^m, v in
    [0, n)^d2, with q blocks section_q(v)^m and translations D m v; the
    complement is generated by n-th section powers t(e_i)^n = t(n e_i), the
    kernel, and the corrected point lifts.  Every property is checked by
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
    q.collection            # refuses orders above the cap
    checks: list[SplitCheck] = []

    # normal factor: the m-th section powers mod N
    d, d2, one_p = spec.points[0], spec.d2, spec.p_identity
    vecs = grid_points(n, d2)
    normal = set(q.ids(*normal_forms(spec, np.linalg.matrix_power(spec.section_q(vecs), m),
                                     [one_p] * len(vecs), d * m * vecs), one_p).tolist())
    checks.append(SplitCheck("normal-order", len(normal) == n ** spec.d2,
                             f"{len(normal)} vs n^d2 = {n ** spec.d2}"))
    block, in_normal = _products(q, normal, normal), _mask(q, normal)
    checks.append(SplitCheck("normal-closed", _inside(block, in_normal)))
    checks.append(SplitCheck("normal-abelian", bool((block == block.T).all())))
    power = members = np.array(list(normal))
    for _ in range(n - 1):
        power = q.products(power, members)
    checks.append(SplitCheck("normal-exponent", bool((power == q.identity).all()), f"x^{n} = id"))
    gens = _generators(q)
    checks.append(SplitCheck("normal-invariant",
                             _inside(_conjugates(q, gens, normal), in_normal)))

    comp = complement_set(spec, n)
    seeds = list(_ids(q, comp.elements))
    seeds += q.ids(n * np.eye(d2, dtype=np.int64), spec.f_identity, one_p).tolist()
    seeds += q.ids(np.zeros(d2, dtype=np.int64), range(spec.f_order), one_p).tolist()
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

    comp_normal = _inside(_conjugates(q, gens, complement), _mask(q, complement))
    direct = bool(comp_normal and inter == {q.identity}
                  and len(normal) * len(complement) == q.order)

    return SplitCertificate(
        spec_name=spec.name, m=m, n=n, N=N, a=comp.a,
        normal_order=len(normal), complement_order=len(complement),
        group_order=q.order, direct_product=direct, checks=checks,
        normal_part=_forms(q, normal), complement_part=_forms(q, complement))


def verify_certificate(spec: GroupSpec, cert: SplitCertificate) -> bool:
    """Re-derive every certificate claim from scratch.

    N = m n, and the orders follow from (m, n) alone: n^d2 for the normal
    part and m^d2 |F| |P| for the complement, whose product is the order
    N^d2 |F| |P| of the quotient.  Both parts must be closed under products,
    so that they are subgroups, the normal part under conjugation by the
    generators too, and they must meet only in the identity.
    """
    if cert.N != cert.m * cert.n:
        return False
    q = build_quotient(spec, cert.N)
    normal, complement = _ids(q, cert.normal_part), _ids(q, cert.complement_part)
    orders = (cert.n ** spec.d2, cert.m ** spec.d2 * spec.f_order * spec.rot_order)
    if ((len(normal), len(complement)) != orders
            or (cert.normal_order, cert.complement_order, cert.group_order) != (*orders, q.order)):
        return False
    in_normal = _mask(q, normal)
    if not _inside(_products(q, normal, normal), in_normal):
        return False
    if not _inside(_conjugates(q, _generators(q), normal), in_normal):
        return False
    if not _inside(_products(q, complement, complement), _mask(q, complement)):
        return False
    return normal & complement == {q.identity}
