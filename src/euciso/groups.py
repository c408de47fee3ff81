"""Group specifications, normal forms t(n)*f*p, good exponents and quotients.

A GroupSpec pins one generating description of a discrete group
G < O(d1) + E(d2): the finite kernel F as explicit O(d1) blocks, one
section lift per lattice direction (so the section value t(n) is the
ordered product g1^n1 ... g_d2^n_d2), and a representation set of
G modulo its translation-kernel preimage, one element per point-group
matrix.  Everything else in the package is computed from this data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import isometry as iso
from .errors import BadModulus, InternalInconsistency, NotAMember
from .isometry import Isometry

ORDER_BOUND = 48


@dataclass(frozen=True)
class NormalForm:
    """Exponent vector, kernel index and point-rep index of t(n)*f*p."""

    n: tuple[int, ...]
    f: int
    p: int


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class StructureReport:
    m0: int
    m0_bound: int
    is_space_group: bool
    f_order: int
    rot_order: int


class GroupSpec:
    """Immutable description of one discrete isometry group.

    f_elements : list of d1 x d1 orthogonal arrays, the full kernel F
                 (identity included).
    t_lifts    : d2 isometries with identity point part and tau = e_i.
    p_reps     : coset representatives of G modulo the translation
                 preimage, identity included, point parts pairwise
                 distinct.
    """

    def __init__(self, name, d1, d2, f_elements, t_lifts, p_reps, tol=iso.DEFAULT_TOL):
        self.name = str(name)
        self.d1 = int(d1)
        self.d2 = int(d2)
        self.tol = float(tol)
        self.f_elements = [np.array(f, dtype=float) for f in f_elements]
        for f in self.f_elements:
            f.setflags(write=False)
        self.t_lifts = list(t_lifts)
        self.p_reps = list(p_reps)
        self._p_index = {p.p: i for i, p in enumerate(self.p_reps)}
        self._t_cache: dict[tuple[int, ...], Isometry] = {}
        self._t_gen_pow: dict[tuple[int, int], np.ndarray] = {}
        self._quotients: dict[int, "QuotientGroup"] = {}
        self._m0_report: StructureReport | None = None
        self._f_mul: list[list[int]] | None = None
        self._f_inv: list[int] | None = None

    # -- indices ----------------------------------------------------------

    @property
    def f_order(self) -> int:
        return len(self.f_elements)

    @property
    def rot_order(self) -> int:
        return len(self.p_reps)

    @property
    def f_identity(self) -> int:
        idx = self.f_index(np.eye(self.d1))
        if idx is None:
            raise InternalInconsistency("F does not contain the identity")
        return idx

    @property
    def p_identity(self) -> int:
        idx = self._p_index.get(iso.identity_int_matrix(self.d2))
        if idx is None:
            raise InternalInconsistency("p_reps does not contain the identity")
        return idx

    def f_index(self, q: np.ndarray) -> int | None:
        for i, f in enumerate(self.f_elements):
            if iso.q_equal(q, f, self.tol):
                return i
        return None

    def p_index(self, p) -> int | None:
        return self._p_index.get(iso.int_matrix(p))

    def f_iso(self, i: int) -> Isometry:
        return Isometry(self.f_elements[i], iso.identity_int_matrix(self.d2),
                        (Fraction(0),) * self.d2)

    def f_mul_table(self) -> list[list[int]]:
        if self._f_mul is None:
            table = []
            for a in self.f_elements:
                row = []
                for b in self.f_elements:
                    k = self.f_index(a @ b)
                    if k is None:
                        raise InternalInconsistency("F is not closed under products")
                    row.append(k)
                table.append(row)
            self._f_mul = table
        return self._f_mul

    def f_inv_table(self) -> list[int]:
        if self._f_inv is None:
            self._f_inv = []
            for a in self.f_elements:
                k = self.f_index(a.T)
                if k is None:
                    raise InternalInconsistency("F is not closed under inverses")
                self._f_inv.append(k)
        return self._f_inv

    def generators(self) -> list[Isometry]:
        return (list(self.t_lifts)
                + [self.f_iso(i) for i in range(self.f_order)]
                + list(self.p_reps))

    # -- section ----------------------------------------------------------

    def _gen_q_power(self, i: int, k: int) -> np.ndarray:
        key = (i, k)
        cached = self._t_gen_pow.get(key)
        if cached is None:
            q = self.t_lifts[i].q
            if k >= 0:
                cached = np.linalg.matrix_power(q, k)
            else:
                cached = np.linalg.matrix_power(q.T, -k)
            self._t_gen_pow[key] = cached
        return cached

    def section(self, n) -> Isometry:
        """t(n) = g1^n1 ... g_d2^n_d2; tau block is exactly n."""
        n = tuple(int(x) for x in n)
        cached = self._t_cache.get(n)
        if cached is None:
            q = np.eye(self.d1)
            for i, k in enumerate(n):
                q = q @ self._gen_q_power(i, k)
            cached = Isometry(q, iso.identity_int_matrix(self.d2),
                              tuple(Fraction(x) for x in n))
            self._t_cache[n] = cached
        return cached


def reconstruct(spec: GroupSpec, nf: NormalForm) -> Isometry:
    """The isometry t(n)*f*p encoded by a normal form."""
    return iso.compose(iso.compose(spec.section(nf.n), spec.f_iso(nf.f)),
                       spec.p_reps[nf.p])


def normal_form(spec: GroupSpec, g: Isometry) -> NormalForm:
    """Factor a group member as t(n)*f*p.

    The point part selects p, the translation block yields n, and the
    residual q block is matched against the finite set F.
    """
    p_idx = spec.p_index(g.p)
    if p_idx is None:
        raise NotAMember(f"point part {g.p} not among p_reps of {spec.name}")
    p = spec.p_reps[p_idx]
    n = []
    for a, b in zip(g.tau, p.tau):
        diff = a - b
        if diff.denominator != 1:
            raise NotAMember(f"translation residue {diff} is not a lattice vector")
        n.append(int(diff))
    n = tuple(n)
    # q(g) = q(t(n)) q(f) q(p)  =>  q(f) = q(t(n))^T q(g) q(p)^T
    if spec.d1:
        q_res = spec.section(n).q.T @ (g.q @ p.q.T)
    else:
        q_res = np.zeros((0, 0))
    f_idx = spec.f_index(q_res)
    if f_idx is None:
        raise NotAMember("residual O(d1) block matches no element of F "
                         f"(deviation from nearest checked against tol={spec.tol})")
    return NormalForm(n, f_idx, p_idx)


def is_member(spec: GroupSpec, g: Isometry) -> bool:
    try:
        normal_form(spec, g)
        return True
    except NotAMember:
        return False


# -- validation -------------------------------------------------------------

def validate_spec(spec: GroupSpec, order_bound: int = ORDER_BOUND) -> list[Violation]:
    """Check every GroupSpec invariant; violations are data, not errors."""
    out: list[Violation] = []
    tol = spec.tol

    if spec.d1 < 0 or spec.d2 < 0:
        return [Violation("dims", "d1 and d2 must be nonnegative")]
    if len(spec.t_lifts) != spec.d2:
        out.append(Violation("t-lifts", f"expected {spec.d2} t_lifts, got {len(spec.t_lifts)}"))
        return out

    for i, f in enumerate(spec.f_elements):
        if f.shape != (spec.d1, spec.d1):
            out.append(Violation("f-shape", f"F[{i}] has shape {f.shape}"))
            return out
        if iso.orth_deviation(f) > tol:
            out.append(Violation("f-orthogonal", f"F[{i}] is not orthogonal within tol"))

    if spec.f_index(np.eye(spec.d1)) is None:
        out.append(Violation("f-identity", "F does not contain the identity"))
    for i, a in enumerate(spec.f_elements):
        for j, b in enumerate(spec.f_elements):
            if spec.f_index(a @ b) is None:
                out.append(Violation("f-closed", f"F not closed: F[{i}]*F[{j}] missing"))
        if spec.f_index(a.T) is None:
            out.append(Violation("f-inverse", f"F not closed under inverse at F[{i}]"))
    for i, a in enumerate(spec.f_elements):
        for j, b in enumerate(spec.f_elements):
            if i < j and iso.q_equal(a, b, tol):
                out.append(Violation("f-distinct", f"F[{i}] and F[{j}] coincide"))

    # section lifts: identity point part, tau = e_i, orthogonal q
    for i, g in enumerate(spec.t_lifts):
        if g.d1 != spec.d1 or g.d2 != spec.d2:
            out.append(Violation("t-dims", f"t_lifts[{i}] has wrong block dims"))
            return out
        if g.p != iso.identity_int_matrix(spec.d2):
            out.append(Violation("t-point", f"t_lifts[{i}] point part is not the identity"))
        want = tuple(Fraction(int(i == j)) for j in range(spec.d2))
        if g.tau != want:
            out.append(Violation("t-tau", f"t_lifts[{i}] tau is {g.tau}, expected e_{i+1}"))
        if iso.orth_deviation(g.q) > tol:
            out.append(Violation("t-orthogonal", f"t_lifts[{i}] q block not orthogonal"))

    # point representatives: distinct lattice ops forming a finite group
    if spec.p_index(iso.identity_int_matrix(spec.d2)) is None:
        out.append(Violation("p-identity", "p_reps does not contain the identity"))
    pmats = [p.p for p in spec.p_reps]
    if len(set(pmats)) != len(pmats):
        out.append(Violation("p-distinct", "p_reps point parts are not pairwise distinct"))
    pset = set(pmats)
    for i, g in enumerate(spec.p_reps):
        if g.d1 != spec.d1 or g.d2 != spec.d2:
            out.append(Violation("p-dims", f"p_reps[{i}] has wrong block dims"))
            return out
        if iso.orth_deviation(g.q) > tol:
            out.append(Violation("p-orthogonal", f"p_reps[{i}] q block not orthogonal"))
        det = iso.pmat_det(g.p)
        if det not in (1, -1):
            out.append(Violation("p-det", f"p_reps[{i}] determinant {det}"))
            return out
        if iso.pmat_order(g.p, order_bound) is None:
            out.append(Violation("p-order", f"p_reps[{i}] order exceeds bound {order_bound}"))
    for a in pmats:
        for b in pmats:
            if iso.pmat_mul(a, b) not in pset:
                out.append(Violation("p-group", "point parts not closed under products"))
                break
        if iso.pmat_inv(a) not in pset:
            out.append(Violation("p-group", "point parts not closed under inverse"))
    if out:
        # skip conjugation checks when the raw data is already broken
        return _dedup(out)

    # F normal under all generators
    for tag, g in [("t", t) for t in spec.t_lifts] + [("p", p) for p in spec.p_reps]:
        g_inv = iso.inverse(g)
        for i in range(spec.f_order):
            conj = iso.compose(iso.compose(g, spec.f_iso(i)), g_inv)
            if spec.f_index(conj.q) is None or conj.p != iso.identity_int_matrix(spec.d2) \
                    or any(t != 0 for t in conj.tau):
                out.append(Violation("f-normal",
                                     f"conjugate of F[{i}] by a {tag}-generator left F"))

    # commutators of section generators land in F
    for i in range(spec.d2):
        for j in range(i + 1, spec.d2):
            gi, gj = spec.t_lifts[i], spec.t_lifts[j]
            comm = iso.compose_all([gi, gj, iso.inverse(gi), iso.inverse(gj)])
            if comm.p != iso.identity_int_matrix(spec.d2) or any(t != 0 for t in comm.tau):
                out.append(Violation("t-commutator",
                                     f"[g{i+1}, g{j+1}] has a nontrivial (p, tau) block"))
            elif spec.f_index(comm.q) is None:
                out.append(Violation("t-commutator",
                                     f"[g{i+1}, g{j+1}] q block lies outside F"))

    # presentation closure: p*p' and p*t*p^-1 must normal-form
    for a in spec.p_reps:
        for b in spec.p_reps:
            if not is_member(spec, iso.compose(a, b)):
                out.append(Violation("p-closure", "product of p_reps has no normal form"))
        for t in spec.t_lifts:
            if not is_member(spec, iso.compose(iso.compose(a, t), iso.inverse(a))):
                out.append(Violation("p-conjugation",
                                     "conjugate of a t_lift by a p_rep has no normal form"))

    return _dedup(out)


def _dedup(violations: list[Violation]) -> list[Violation]:
    seen, out = set(), []
    for v in violations:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


# -- good exponents ----------------------------------------------------------

def _in_section_power(spec: GroupSpec, x: Isometry, m: int) -> bool:
    """Membership in T^m: take the exact m-th root downstairs, lift, power."""
    if x.p != iso.identity_int_matrix(spec.d2):
        return False
    root = []
    for t in x.tau:
        if t.denominator != 1 or int(t) % m != 0:
            return False
        root.append(int(t) // m)
    lifted = iso.power(spec.section(root), m)
    return iso.approx_equal(lifted, x, spec.tol)


def is_power_normal(spec: GroupSpec, m: int) -> bool:
    """True iff the set of m-th section powers is a normal subgroup."""
    if m < 1:
        raise ValueError("m must be positive")
    basis = []
    for i in range(spec.d2):
        e = [0] * spec.d2
        e[i] = 1
        basis.append(tuple(e))
        basis.append(tuple(-x for x in e))
    powers = {b: iso.power(spec.section(b), m) for b in basis}
    # closure on generator pairs
    for a in basis:
        for b in basis:
            prod = iso.compose(powers[a], powers[b])
            if not _in_section_power(spec, prod, m):
                return False
    # normality against every generator of G
    for g in spec.generators():
        g_inv = iso.inverse(g)
        for b in basis:
            conj = iso.compose(iso.compose(g, powers[b]), g_inv)
            if not _in_section_power(spec, conj, m):
                return False
    return True


def automorphism_count(spec: GroupSpec) -> int:
    """|Aut(F)| by brute force over multiplication-table-preserving bijections."""
    n = spec.f_order
    mul = spec.f_mul_table()
    ident = spec.f_identity
    orders = []
    for i in range(n):
        k, x = 1, i
        while x != ident:
            x = mul[x][i]
            k += 1
        orders.append(k)
    count = 0
    candidates = [[j for j in range(n) if orders[j] == orders[i]] for i in range(n)]
    for perm in itertools.permutations(range(n)):
        if perm[ident] != ident:
            continue
        if any(perm[i] not in candidates[i] for i in range(n)):
            continue
        if all(perm[mul[a][b]] == mul[perm[a]][perm[b]]
               for a in range(n) for b in range(n)):
            count += 1
    return count


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def find_m0(spec: GroupSpec, bound: int | None = None) -> StructureReport:
    """Least exponent whose section powers form a normal subgroup."""
    if spec._m0_report is not None and bound is None:
        return spec._m0_report
    m0_bound = spec.f_order ** 2 * automorphism_count(spec)
    scan_bound = bound if bound is not None else m0_bound
    m0 = None
    for m in _divisors(scan_bound):
        if is_power_normal(spec, m):
            m0 = m
            break
    if m0 is None:
        raise InternalInconsistency(
            f"no divisor of {scan_bound} gives a normal section power for {spec.name}")
    report = StructureReport(m0=m0, m0_bound=m0_bound,
                             is_space_group=(spec.d1 == 0),
                             f_order=spec.f_order, rot_order=spec.rot_order)
    if bound is None:
        spec._m0_report = report
    return report


def tf_slice(spec: GroupSpec) -> GroupSpec:
    """The subgroup generated by sections and kernel only (point group dropped)."""
    return GroupSpec(spec.name + "-tf", spec.d1, spec.d2, spec.f_elements,
                     spec.t_lifts, [iso.identity_isometry(spec.d1, spec.d2)],
                     tol=spec.tol)


# -- finite quotients --------------------------------------------------------

class QuotientGroup:
    """G modulo N-th section powers, materialized as normal forms."""

    def __init__(self, spec: GroupSpec, N: int):
        self.spec = spec
        self.N = N
        ranges = [range(N)] * spec.d2
        self.element_list: list[NormalForm] = [
            NormalForm(n, f, p)
            for n in itertools.product(*ranges)
            for f in range(spec.f_order)
            for p in range(spec.rot_order)
        ]
        self.index = {nf: i for i, nf in enumerate(self.element_list)}
        self.order = len(self.element_list)
        self.identity = self.index[NormalForm((0,) * spec.d2, spec.f_identity,
                                              spec.p_identity)]
        self.elements = tuple(range(self.order))
        self.local = np.arange(self.order)     # id -> row of a stack over elements
        self._isos: list[Isometry | None] = [None] * self.order
        self._mul: dict[tuple[int, int], int] = {}
        self._inv: dict[int, int] = {}
        self._table: np.ndarray | None = None
        self._irreps_cache: dict[int, list] = {}

    def nf(self, i: int) -> NormalForm:
        return self.element_list[i]

    def iso(self, i: int) -> Isometry:
        cached = self._isos[i]
        if cached is None:
            cached = reconstruct(self.spec, self.element_list[i])
            self._isos[i] = cached
        return cached

    def reduce(self, nf: NormalForm) -> int:
        """Index of a normal form after mod-N exponent reduction."""
        n = tuple(x % self.N for x in nf.n)
        return self.index[NormalForm(n, nf.f, nf.p)]

    def mul(self, i: int, j: int) -> int:
        key = (i, j)
        cached = self._mul.get(key)
        if cached is None:
            if self._table is not None:
                cached = int(self._table[i, j])
            else:
                prod = iso.compose(self.iso(i), self.iso(j))
                cached = self.reduce(normal_form(self.spec, prod))
            self._mul[key] = cached
        return cached

    def inv(self, i: int) -> int:
        cached = self._inv.get(i)
        if cached is None:
            cached = self.reduce(normal_form(self.spec, iso.inverse(self.iso(i))))
            self._inv[i] = cached
        return cached

    def mult_table(self) -> np.ndarray:
        """Full multiplication table; built once, then backs mul().

        Element i factors as t(a) * x with x = f*p, so row i is the row of
        x left-translated by t(a); left translation only permutes the
        exponent block and applies the F-valued section cocycle
        t(a) t(b) = t(a+b) z(a,b).  Only |F||P| rows need full products.
        """
        if self._table is None:
            spec, N = self.spec, self.N
            n = self.order
            nf_count, np_count = spec.f_order, spec.rot_order
            vecs = list(itertools.product(*[range(N)] * spec.d2))
            v_index = {v: i for i, v in enumerate(vecs)}
            nv = len(vecs)

            add = np.empty((nv, nv), dtype=np.int32)
            zeta = np.empty((nv, nv), dtype=np.int32)
            for ia, a in enumerate(vecs):
                ta = spec.section(a)
                for ib, b in enumerate(vecs):
                    nf = normal_form(spec, iso.compose(ta, spec.section(b)))
                    add[ia, ib] = v_index[tuple(x % N for x in nf.n)]
                    zeta[ia, ib] = nf.f
            fmul = np.array(spec.f_mul_table(), dtype=np.int32)

            table = np.empty((n, n), dtype=np.int32)
            m_part = np.empty(n, dtype=np.int32)
            f_part = np.empty(n, dtype=np.int32)
            p_part = np.empty(n, dtype=np.int32)
            for f1 in range(nf_count):
                for p1 in range(np_count):
                    x = self.index[NormalForm((0,) * spec.d2, f1, p1)]
                    gx = self.iso(x)
                    for j in range(n):
                        nf = normal_form(spec, iso.compose(gx, self.iso(j)))
                        m_part[j] = v_index[tuple(t % N for t in nf.n)]
                        f_part[j] = nf.f
                        p_part[j] = nf.p
                    for ia in range(nv):
                        i = (ia * nf_count + f1) * np_count + p1
                        new_f = fmul[zeta[ia, m_part], f_part]
                        table[i, :] = (add[ia, m_part] * nf_count + new_f) \
                            * np_count + p_part
            self._table = table
        return self._table

    def tf_indices(self) -> tuple[int, ...]:
        pid = self.spec.p_identity
        return tuple(i for i, nf in enumerate(self.element_list) if nf.p == pid)

    def tf_subgroup(self) -> "SubgroupView":
        return SubgroupView(self, self.tf_indices())

    def project_index(self, coarse: "QuotientGroup", i: int) -> int:
        """Image of element i under the quotient map onto G mod T^M, M | N."""
        if self.N % coarse.N != 0 or coarse.spec is not self.spec:
            raise BadModulus("projection target must be a coarser quotient of the same spec")
        nf = self.element_list[i]
        return coarse.index[NormalForm(tuple(x % coarse.N for x in nf.n), nf.f, nf.p)]

    def spot_check(self, rng=None, samples: int = 16) -> None:
        rng = rng or np.random.default_rng(0)
        n = self.order
        for _ in range(samples):
            a, b, c = (int(rng.integers(n)) for _ in range(3))
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise InternalInconsistency("associativity failed in quotient")
            if self.mul(a, self.inv(a)) != self.identity:
                raise InternalInconsistency("inverse failed in quotient")


class SubgroupView:
    """A subgroup of a quotient addressed by the parent's element ids.

    `local[i]` is the position of parent id i in `elements`, or -1 when i
    lies outside the subgroup.
    """

    def __init__(self, parent: QuotientGroup, ids):
        self.parent = parent
        self.elements = tuple(ids)
        self.local = np.full(parent.order, -1)
        self.local[list(self.elements)] = np.arange(len(self.elements))
        self.order = len(self.elements)
        self.identity = parent.identity
        if self.local[self.identity] < 0:
            raise InternalInconsistency("subgroup view lacks the identity")

    def mul(self, i: int, j: int) -> int:
        k = self.parent.mul(i, j)
        if self.local[k] < 0:
            raise InternalInconsistency("subgroup view is not closed under products")
        return k

    def inv(self, i: int) -> int:
        k = self.parent.inv(i)
        if self.local[k] < 0:
            raise InternalInconsistency("subgroup view is not closed under inverses")
        return k


def build_quotient(spec: GroupSpec, N: int) -> QuotientGroup:
    """Materialize G mod T^N; requires N to be a multiple of m0."""
    if N < 1:
        raise BadModulus("N must be positive")
    cached = spec._quotients.get(N)
    if cached is not None:
        return cached
    m0 = find_m0(spec).m0
    if N % m0 != 0:
        raise BadModulus(f"N={N} is not a multiple of m0={m0} for {spec.name}")
    q = QuotientGroup(spec, N)
    q.spot_check()
    spec._quotients[N] = q
    return q
