"""Group specifications, normal forms t(n)*f*p, good exponents and quotients.

A GroupSpec pins one generating description of a discrete group
G < O(d1) + E(d2): the finite kernel F as explicit O(d1) blocks, one
section lift per lattice direction (so the section value t(n) is the
ordered product g1^n1 ... g_d2^n_d2), and a representation set of
G modulo its translation-kernel preimage, one element per point-group
matrix.  Everything else in the package is computed from this data.

Members are factored in stacks (`normal_forms`), with translations as
integers over one denominator per spec.  G multiplies normal forms by
collection (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, ch. 8) at level m0: T^m0 is normal and meets F only in 1, so the
generator-level products p*p', p*t(m)*p^-1, p*f*p^-1, t(v)^-1*f*t(v) and
the section cocycle depend on exponents only mod m0.  They are factored
once per spec (`Presentation`), and every product is then integer lookups
in F's multiplication table, exact for int64 exponents.  A finite quotient
G mod T^N numbers its members by the mixed-radix id of their normal form,
n first, then f, then p (`QuotientGroup`), and multiplies them by the same
formula with n reduced mod N, for the pairs asked for or for the whole
multiplication table at once.

The structure checks (`validate_spec`, `is_power_normal`) work on stacks
of q blocks alone.  The (p, tau) part of every product they form is fixed
by integer arithmetic: a conjugate g*x*g^-1 of an x with point part 1 has
point part 1 and tau = P_g tau(x), so g*f*g^-1 has tau = 0 and
g*t(b)*g^-1 has tau = P_g b; once the t_lifts have point part 1 and
tau = e_i, a commutator of two of them has tau = 0.  Each membership test
is then one q comparison, against F or against the q block of t(r)^m.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import isometry as iso
from .errors import BadModulus, CapExceeded, InternalInconsistency, NotAMember
from .isometry import ORDER_BOUND, Isometry

INT64_MAX = 2 ** 63 - 1     # `GroupSpec.points` holds point parts and translations as int64
DEFAULT_CAP = 4096        # largest quotient order given a multiplication table or irreps
# powers of a section lift kept per lattice direction: the callers (the
# presentation's one build, the m0 search and the factoring at the boundary)
# ask for exponents of order m0, and larger ones are reached by squaring
POWER_BOUND = DEFAULT_CAP
# a product by the presentation's formula costs 80-96 ns and a table entry 4.9
# ns to fill and check (pg N=45 and twistE8 N=6, one core, batches of 4k-1M
# pairs), so a request for more than order^2 / TABLE_BREAK_EVEN products
# builds the table and reads it
TABLE_BREAK_EVEN = 10


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
                 preimage, point parts pairwise distinct; the one with
                 identity point part is the identity.
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
        self._t_cache: dict = {}                 # unused; perfbench's cold check reads it
        self._t_gen_pow: dict[int, np.ndarray] = {}
        self._quotients: dict[int, "QuotientGroup"] = {}
        self._m0_report: StructureReport | None = None
        self._f_mul: list[list[int]] | None = None
        self._p_mul: np.ndarray | None = None
        self._f_inv: list[int] | None = None     # unused; perfbench's cold check reads it

    # -- indices ----------------------------------------------------------

    @property
    def f_order(self) -> int:
        return len(self.f_elements)

    @property
    def rot_order(self) -> int:
        return len(self.p_reps)

    @functools.cached_property
    def presentation(self) -> "Presentation":
        """G's product formula at level m0, built on first use; see `Presentation`."""
        return Presentation(self)

    @functools.cached_property
    def f_stack(self) -> np.ndarray:
        """The elements of F as one read-only (|F|, d1, d1) array."""
        stack = np.array(self.f_elements)
        stack.setflags(write=False)
        return stack

    @functools.cached_property
    def f_matches(self) -> tuple[int, np.ndarray, np.ndarray]:
        """F's index of the identity, of every product F[i] F[j] as a (|F|, |F|)
        array and of every inverse F[i]^T, each -1 where no element of F
        matches; one `_match_f` pass, read by `validate_spec`, `f_identity`
        and `f_mul_table`."""
        k, d1 = self.f_order, self.d1
        f = self.f_stack.reshape(k, d1, d1)
        idx = _match_f(self, np.concatenate([np.eye(d1)[None],
                                             (f[:, None] @ f[None]).reshape(k * k, d1, d1),
                                             f.swapaxes(1, 2)]))
        return int(idx[0]), idx[1:k * k + 1].reshape(k, k), idx[k * k + 1:]

    @functools.cached_property
    def f_identity(self) -> int:
        idx = self.f_matches[0]
        if idx < 0:
            raise InternalInconsistency("F does not contain the identity")
        return idx

    @functools.cached_property
    def p_identity(self) -> int:
        idx = self._p_index.get(iso.identity_int_matrix(self.d2))
        if idx is None:
            raise InternalInconsistency("p_reps does not contain the identity")
        return idx

    def p_index(self, p) -> int | None:
        return self._p_index.get(iso.int_matrix(p))

    def f_iso(self, i: int) -> Isometry:
        return Isometry(self.f_elements[i], iso.identity_int_matrix(self.d2),
                        (Fraction(0),) * self.d2)

    def f_mul_table(self) -> list[list[int]]:
        if self._f_mul is None:
            table = self.f_matches[1]
            if (table < 0).any():
                raise InternalInconsistency("F is not closed under products")
            self._f_mul = table.tolist()
        return self._f_mul

    @functools.cached_property
    def word_tree(self) -> tuple[list[int], list[int], list[list[tuple[int, int, int]]]]:
        """Element orders of F, a greedy generating set and its word tree.

        Generators are chosen greedily, highest element order first, each one
        outside the subgroup the earlier ones generate, so H_i = <g_0..g_i>
        climbs to F.  The word tree writes every element as parent * generator:
        levels[i] lists (x, parent, j), x = parent * gens[j], for the elements
        of H_i outside H_{i-1}, in BFS order.
        """
        mul, ident = self.f_mul_table(), self.f_identity
        n = self.f_order
        order = []
        for g in range(n):
            k, x = 1, g
            while x != ident:
                x, k = mul[x][g], k + 1
            order.append(k)
        gens, levels, members, inside = [], [], [ident], {ident}
        for g in sorted(range(n), key=lambda x: -order[x]):
            if g in inside:
                continue
            gens.append(g)
            level = []
            for x in members:           # members grows while it is walked: a BFS
                for j, h in enumerate(gens):
                    y = mul[x][h]
                    if y not in inside:
                        inside.add(y)
                        level.append((y, x, j))
                        members.append(y)
            levels.append(level)
        return order, gens, levels

    def p_mul_table(self) -> np.ndarray:
        """p_reps index of every product P_a P_b of point parts, as a (|P|, |P|) array."""
        if self._p_mul is None:
            k, d2 = self.rot_order, self.d2
            _, p_mat, _, _ = self.points
            idx = [self.p_index(m) for m in (p_mat[:, None] @ p_mat[None]).reshape(k * k, d2, d2)]
            if None in idx:
                raise InternalInconsistency("point parts are not closed under products")
            self._p_mul = np.array(idx, dtype=np.int64).reshape(k, k)
        return self._p_mul

    @functools.cached_property
    def dual_points(self) -> np.ndarray:
        """The (|P|, d2, d2) integer stack of P^-T, the point parts' action on wave vectors."""
        k, d2 = self.rot_order, self.d2
        return np.array([iso.pmat_inv(p.p) for p in self.p_reps],
                        dtype=np.int64).reshape(k, d2, d2).swapaxes(1, 2)

    @functools.cached_property
    def points(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """(D, point matrices, D * tau, q blocks) of the p_reps as stacked arrays.

        D is the lcm of the p_reps translation denominators, so every
        member's translation is an integer vector over D.
        """
        d = math.lcm(*(t.denominator for p in self.p_reps for t in p.tau))
        k, d1, d2 = len(self.p_reps), self.d1, self.d2
        return (d, np.array([p.p for p in self.p_reps], dtype=np.int64).reshape(k, d2, d2),
                np.array([[int(t * d) for t in p.tau] for p in self.p_reps],
                         dtype=np.int64).reshape(k, d2),
                np.array([p.q for p in self.p_reps]).reshape(k, d1, d1))

    def generators(self) -> list[Isometry]:
        return (list(self.t_lifts)
                + [self.f_iso(i) for i in range(self.f_order)]
                + list(self.p_reps))

    # -- section ----------------------------------------------------------

    def _gen_q_powers(self, i: int, top: int) -> np.ndarray:
        """q^k of lift i for k = -m..m, m >= top, as a (2m + 1, d1, d1) stack
        whose middle block is k = 0.  Each power is one product of the next
        lower one with q, or with q^T = q^-1; the stack is kept per lift and
        built again when a larger power is asked for, up to POWER_BOUND."""
        have = self._t_gen_pow.get(i)
        if have is None or len(have) < 2 * top + 1:
            q, up, down = self.t_lifts[i].q, [np.eye(self.d1)], [np.eye(self.d1)]
            for _ in range(top):
                up.append(up[-1] @ q)
                down.append(down[-1] @ q.T)
            have = self._t_gen_pow[i] = np.array(down[:0:-1] + up)
        return have

    def _lift_powers(self, i: int, k: np.ndarray) -> np.ndarray:
        """q^k of lift i for each entry of an int64 array k, as a (len(k), d1, d1)
        stack: read from `_gen_q_powers` while every |k| <= POWER_BOUND, else
        all by squaring, one product per bit of the largest |k|."""
        bits = np.abs(k).view(np.uint64)                # |INT64_MIN| reads as 2^63
        top = int(bits.max(initial=0))
        if top <= POWER_BOUND:
            powers = self._gen_q_powers(i, top)
            return powers[k + len(powers) // 2]
        q = self.t_lifts[i].q
        base = np.where((k < 0)[:, None, None], q.T, q)
        out = np.broadcast_to(np.eye(self.d1), base.shape).copy()
        for bit in range(top.bit_length()):
            odd = (bits >> bit & 1).astype(bool)
            out[odd] = out[odd] @ base[odd]
            base = base @ base
        return out

    def section_q(self, n) -> np.ndarray:
        """The (k, d1, d1) q blocks of the sections t(n) = g1^n1 ... g_d2^n_d2
        for a (k, d2) integer stack n; the (p, tau) block of t(n) is (1, n)."""
        n = np.asarray(n, dtype=np.int64)
        if not self.d2:
            return np.broadcast_to(np.eye(self.d1), (len(n), self.d1, self.d1))
        q = self._lift_powers(0, n[:, 0])
        for i in range(1, self.d2):
            q = q @ self._lift_powers(i, n[:, i])
        return q


def _deviation(q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The largest entry of |q[i] - f[j]| for two stacks of d1 x d1 blocks,
    as a (len(q), len(f)) array.  The d1^2 entries are the leading axis of
    the difference, so the max is d1^2 - 1 elementwise passes over whole
    (len(q), len(f)) planes, not a reduction over d1^2 entries per pair."""
    n = q.shape[-1] ** 2
    diff = (np.ascontiguousarray(q.reshape(len(q), n).T)[:, :, None]
            - np.ascontiguousarray(f.reshape(len(f), n).T)[:, None])
    return np.abs(diff, out=diff).max(axis=0, initial=0.0)


def _match_f(spec: GroupSpec, q: np.ndarray) -> np.ndarray:
    """Index of the nearest element of F for each block of a (k, d1, d1) stack,
    or -1 where even the nearest lies farther than spec.tol."""
    f = spec.f_stack
    if not len(f):
        return np.full(len(q), -1)
    dev = _deviation(q, f)
    idx = dev.argmin(axis=1)
    return np.where(dev[np.arange(len(q)), idx] <= spec.tol, idx, -1)


def _factor(spec: GroupSpec, q, p, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`normal_forms` without its checks: n, f and the mask of rows whose
    translation residue is a lattice vector.  f is -1 on every row that is
    not a member, so f >= 0 is the membership mask."""
    d, _, p_tau, p_q = spec.points
    resid = np.asarray(tau, dtype=np.int64) - p_tau[p]
    lattice = ~(resid % d).any(axis=1)
    n = resid // d
    q_res = spec.section_q(n).swapaxes(1, 2) @ (q @ p_q[p].swapaxes(1, 2))
    return n, np.where(lattice, _match_f(spec, q_res), -1), lattice


def normal_forms(spec: GroupSpec, q, p, tau) -> tuple[np.ndarray, np.ndarray]:
    """Factor a stack of group members as t(n)*f*p.

    q is the (k, d1, d1) stack of O(d1) blocks, p the p_reps index of each
    point part and tau the (k, d2) translations as integers over the
    denominator D of `spec.points`.  The translation residue yields
    n, and the residual q block q(t(n))^T q q(p)^T is matched against F.
    Returns n as a (k, d2) array and the kernel indices f.
    """
    n, f, lattice = _factor(spec, q, p, tau)
    if not lattice.all():
        raise NotAMember("translation residue is not a lattice vector")
    return n, _kernel(spec, f)


def _kernel(spec: GroupSpec, f: np.ndarray) -> np.ndarray:
    """The kernel indices f of `_match_f`, or NotAMember if a row matched none."""
    if (f < 0).any():
        raise NotAMember("residual O(d1) block matches no element of F "
                         f"(deviation from nearest checked against tol={spec.tol})")
    return f


def normal_form(spec: GroupSpec, g: Isometry) -> NormalForm:
    """Factor one group member as t(n)*f*p; see `normal_forms`."""
    (n,), (f,), (p,) = normal_forms_of(spec, [g])
    return NormalForm(tuple(n.tolist()), int(f), int(p))


def normal_forms_of(spec: GroupSpec,
                    gs: list[Isometry]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor a list of group members as t(n)*f*p in one `normal_forms` call:
    n as a (k, d2) int64 array, unreduced, and f and p as (k,) arrays."""
    p_idx, tau = [], []
    for g in gs:
        p = spec.p_index(g.p)
        if p is None:
            raise NotAMember(f"point part {g.p} not among p_reps of {spec.name}")
        t = [x * spec.points[0] for x in g.tau]
        if any(x.denominator != 1 for x in t):
            raise NotAMember(f"translation {g.tau} is not a lattice vector over the p_reps")
        p_idx.append(p)
        tau.append([int(x) for x in t])
    p_idx = np.array(p_idx, dtype=np.int64)
    n, f = normal_forms(spec, np.array([g.q for g in gs]).reshape(len(gs), spec.d1, spec.d1),
                        p_idx, np.array(tau, dtype=np.int64).reshape(len(gs), spec.d2))
    return n, f, p_idx


def _rep_products(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (q, p, tau) stacks of every product p*p' of two p_reps, in `normal_forms`' terms."""
    d1, d2, r = spec.d1, spec.d2, spec.rot_order
    _, p_mat, p_tau, p_q = spec.points
    return ((p_q[:, None] @ p_q[None]).reshape(r * r, d1, d1), spec.p_mul_table().reshape(r * r),
            (p_tau[:, None] + p_tau[None] @ p_mat.swapaxes(1, 2)).reshape(r * r, d2))


# -- validation -------------------------------------------------------------

def validate_spec(spec: GroupSpec) -> list[Violation]:
    """Check every GroupSpec invariant; violations are data, not errors.

    The violations come in a fixed order, and each is listed once:

    1. `dims` (d1 or d2 negative) or `t-lifts` (not d2 of them) alone.
    2. `f-orthogonal` per element of F, up to the first one of the wrong
       shape, which gives `f-shape` and ends the list.
    3. `f-identity`; then per row i of F's table, `f-closed` for each
       missing F[i]*F[j] and `f-inverse` if F[i]^-1 is missing; then
       `f-distinct` for each coinciding pair i < j.
    4. Per t_lift: `t-point`, `t-tau`, `t-orthogonal`, up to the first one
       of the wrong block dims, which gives `t-dims` and ends the list.
    5. `p-identity` when no p_rep has the identity point part, or when
       that one has a nonzero tau or a q block farther than tol from I;
       `p-distinct`; per p_rep: `p-orthogonal`, `p-det`
       (which ends the list) and `p-order`, up to the first one of the
       wrong block dims, which gives `p-dims` and ends the list.
    6. Per point part, `p-group` if a product with another one or its
       inverse is missing; then `p-range` per p_rep with an integer past
       int64 (see `GroupSpec.points`).  If anything was found so far, the
       list ends here.
    7. Per t_lift, then per p_rep, `f-normal` for each F[i] it conjugates
       out of F; `t-commutator` per pair of t_lifts; per p_rep,
       `p-closure` and `p-conjugation`.

    Orthogonality is one pass over the stack of F, the t_lifts' and the
    p_reps' q blocks; F's identity, products and inverses are the
    spec's `f_matches`; the conjugates and commutators of step 7 are one
    `_match_f` pass and the presentation closure one `_factor` pass.
    """
    d1, d2, tol = spec.d1, spec.d2, spec.tol
    if d1 < 0 or d2 < 0:
        return [Violation("dims", "d1 and d2 must be nonnegative")]
    if len(spec.t_lifts) != d2:
        return [Violation("t-lifts", f"expected {d2} t_lifts, got {len(spec.t_lifts)}")]

    # each list is checked up to its first block of the wrong shape or dims
    k = next((i for i, f in enumerate(spec.f_elements) if f.shape != (d1, d1)), spec.f_order)
    t = next((i for i, g in enumerate(spec.t_lifts) if g.d1 != d1 or g.d2 != d2), d2)
    r = next((i for i, g in enumerate(spec.p_reps) if g.d1 != d1 or g.d2 != d2), spec.rot_order)
    blocks = spec.f_elements[:k] + [g.q for g in spec.t_lifts[:t] + spec.p_reps[:r]]
    q = np.array(blocks).reshape(len(blocks), d1, d1)
    bent = (np.abs(q.swapaxes(1, 2) @ q - np.eye(d1)).max(axis=(1, 2), initial=0.0)
            > tol).tolist()
    out = [Violation("f-orthogonal", f"F[{i}] is not orthogonal within tol")
           for i in range(k) if bent[i]]
    if k < spec.f_order:
        out.append(Violation("f-shape", f"F[{k}] has shape {spec.f_elements[k].shape}"))
        return out

    ident, table, inverse = spec.f_matches
    if ident < 0:
        out.append(Violation("f-identity", "F does not contain the identity"))
    for i in np.flatnonzero((table < 0).any(axis=1) | (inverse < 0)).tolist():
        out += [Violation("f-closed", f"F not closed: F[{i}]*F[{j}] missing")
                for j in np.flatnonzero(table[i] < 0).tolist()]
        if inverse[i] < 0:
            out.append(Violation("f-inverse", f"F not closed under inverse at F[{i}]"))
    f = q[:k]
    coincide = _deviation(f, f) <= tol
    out += [Violation("f-distinct", f"F[{i}] and F[{j}] coincide")
            for i, j in zip(*np.nonzero(np.triu(coincide, 1)))]

    # section lifts: identity point part, tau = e_i, orthogonal q
    ident_p = iso.identity_int_matrix(d2)
    for i, g in enumerate(spec.t_lifts[:t]):
        if g.p != ident_p:
            out.append(Violation("t-point", f"t_lifts[{i}] point part is not the identity"))
        if g.tau != ident_p[i]:
            out.append(Violation("t-tau", f"t_lifts[{i}] tau is {g.tau}, expected e_{i+1}"))
        if bent[k + i]:
            out.append(Violation("t-orthogonal", f"t_lifts[{i}] q block not orthogonal"))
    if t < d2:
        out.append(Violation("t-dims", f"t_lifts[{t}] has wrong block dims"))
        return out

    # point representatives: distinct lattice ops forming a finite group
    pmats = [g.p for g in spec.p_reps]
    pset = set(pmats)
    one = spec._p_index.get(ident_p)
    h = None if one is None else spec.p_reps[one]
    if h is None:
        out.append(Violation("p-identity", "p_reps does not contain the identity"))
    elif any(h.tau) or np.abs(h.q - np.eye(h.d1)).max(initial=0) > tol:
        out.append(Violation("p-identity", f"p_reps[{one}] has the identity point part "
                             f"but is not the identity"))
    if len(pset) != len(pmats):
        out.append(Violation("p-distinct", "p_reps point parts are not pairwise distinct"))
    for i, p in enumerate(pmats[:r]):
        if bent[k + d2 + i]:
            out.append(Violation("p-orthogonal", f"p_reps[{i}] q block not orthogonal"))
        det = iso.pmat_det(p)
        if det not in (1, -1):
            out.append(Violation("p-det", f"p_reps[{i}] determinant {det}"))
            return out
        if iso.pmat_order(p, ORDER_BOUND) is None:
            out.append(Violation("p-order", f"p_reps[{i}] order exceeds bound {ORDER_BOUND}"))
    if r < spec.rot_order:
        out.append(Violation("p-dims", f"p_reps[{r}] has wrong block dims"))
        return out
    for a in pmats:
        if any(iso.pmat_mul(a, b) not in pset for b in pmats):
            out.append(Violation("p-group", "point parts not closed under products"))
        if iso.pmat_inv(a) not in pset:
            out.append(Violation("p-group", "point parts not closed under inverse"))
    den = math.lcm(*(x.denominator for g in spec.p_reps for x in g.tau))
    for i, g in enumerate(spec.p_reps):
        ints = [den, *itertools.chain(*g.p), *(x.numerator * (den // x.denominator) for x in g.tau)]
        if max(map(abs, ints)) > INT64_MAX:
            out.append(Violation("p-range", f"p_reps[{i}] has a point part entry, or a "
                                 f"translation over the denominator {den}, past int64"))
    if out:
        # skip conjugation checks when the raw data is already broken
        return list(dict.fromkeys(out))

    # F normal under all generators: g*f*g^-1 has point part 1 and tau = 0.
    # Commutators of section generators land in F; by t-point and t-tau
    # their (p, tau) block is trivial
    g_q, t_q = q[k:], q[k:k + d2]
    pairs = list(itertools.combinations(range(d2), 2))
    qi, qj = t_q[[i for i, _ in pairs]], t_q[[j for _, j in pairs]]
    comm = (qi @ qj @ qi.swapaxes(1, 2) @ qj.swapaxes(1, 2)).reshape(len(pairs), d1, d1)
    hits = _match_f(spec, np.concatenate([_conjugates(g_q, f), comm]))
    outside = hits[:len(g_q) * k].reshape(len(g_q), k) < 0
    for row in np.flatnonzero(outside.any(axis=1)).tolist():
        tag = "t" if row < d2 else "p"
        out += [Violation("f-normal", f"conjugate of F[{i}] by a {tag}-generator left F")
                for i in np.flatnonzero(outside[row]).tolist()]
    out += [Violation("t-commutator", f"[g{i+1}, g{j+1}] q block lies outside F")
            for (i, j), fi in zip(pairs, hits[len(g_q) * k:].tolist()) if fi < 0]

    # presentation closure: p*p' and p*t*p^-1 must normal-form, in one
    # stack.  The point parts come from p_mul_table, which p-group makes
    # safe; p*t_j*p^-1 has point part 1 and tau = P e_j
    d, p_mat, _, p_q = spec.points
    prod_q, prod_p, prod_tau = _rep_products(spec)
    _, hit, _ = _factor(spec, np.concatenate([prod_q, _conjugates(p_q, t_q)]),
                        np.concatenate([prod_p, np.full(r * d2, spec.p_identity)]),
                        np.concatenate([prod_tau, d * p_mat.swapaxes(1, 2).reshape(r * d2, d2)]))
    closure = (hit[:r * r] < 0).reshape(r, r).any(axis=1)
    conjugation = (hit[r * r:] < 0).reshape(r, d2).any(axis=1)
    for a in np.flatnonzero(closure | conjugation).tolist():
        if closure[a]:
            out.append(Violation("p-closure", "product of p_reps has no normal form"))
        if conjugation[a]:
            out.append(Violation("p-conjugation",
                                 "conjugate of a t_lift by a p_rep has no normal form"))
    return list(dict.fromkeys(out))


# -- good exponents ----------------------------------------------------------

def is_power_normal(spec: GroupSpec, m: int) -> bool:
    """True iff the set of m-th section powers is a normal subgroup.

    With b and b' running over the +-e_i, the test is t(m b) t(m b') and
    g t(m b) g^-1 in T^m.  Both have point part 1 and an integer tau in
    m Z^d2, m (b + b') and m P_g b, so their m-th root t(r) is fixed by
    (p, tau) alone and only the q blocks of x and t(r)^m are compared.
    The generators g of G are the t_lifts, generators of F and the p_reps.
    Conjugation maps T^m onto a subgroup of the same finite index, so
    inclusion for each generator is equality and inverses need no check.
    """
    if m < 1:
        raise ValueError("m must be positive")
    d1, d2 = spec.d1, spec.d2
    basis = np.concatenate([np.eye(d2, dtype=np.int64), -np.eye(d2, dtype=np.int64)])
    powers = spec.section_q(m * basis)                  # t(b)^m = t(m b)
    _, f_gens, _ = spec.word_tree
    _, p_mat, _, p_q = spec.points
    gens = ([(t.q, t.p) for t in spec.t_lifts]
            + [(spec.f_elements[i], np.eye(d2)) for i in f_gens] + list(zip(p_q, p_mat)))
    nb, ng = len(basis), len(gens)
    g_q = np.array([q for q, _ in gens]).reshape(ng, d1, d1)
    g_p = np.array([p for _, p in gens], dtype=np.int64).reshape(ng, d2, d2)
    x = np.concatenate([(powers[:, None] @ powers[None]).reshape(nb * nb, d1, d1),
                        (g_q[:, None] @ powers[None] @ g_q[:, None].swapaxes(2, 3))
                        .reshape(ng * nb, d1, d1)])
    roots = np.concatenate([(basis[:, None] + basis[None]).reshape(nb * nb, d2),
                            (basis @ g_p.swapaxes(1, 2)).reshape(ng * nb, d2)])
    y = np.linalg.matrix_power(spec.section_q(roots), m)
    return bool(np.abs(x - y).max(initial=0.0) <= spec.tol)


def automorphism_count(spec: GroupSpec) -> int:
    """|Aut(F)| by backtracking over the images of a generating set.

    This is the standard search for automorphisms of a finite group (Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*, §4.6), over
    the generators and word tree of `GroupSpec.word_tree`.  The images of
    g_0, g_1, ... are assigned in turn, each among the elements of its
    order; the map is extended along level i of the tree, and a branch is
    dropped once it is not injective on H_i or breaks
    phi(x g_j) = phi(x) phi(g_j) there.  Every complete branch is an
    injective homomorphism of F into itself, so it is counted.
    """
    mul, ident = spec.f_mul_table(), spec.f_identity
    n = spec.f_order
    order, gens, levels = spec.word_tree

    def extend(i: int, phi: list[int], img: tuple[int, ...]) -> int:
        if i == len(gens):
            return 1
        total = 0
        for c in (y for y in range(n) if order[y] == order[gens[i]]):
            ext, im = phi[:], img + (c,)
            used = {y for y in ext if y >= 0}
            for x, parent, j in levels[i]:
                y = mul[ext[parent]][im[j]]
                if y in used:
                    break
                ext[x] = y
                used.add(y)
            else:
                if all(ext[mul[x][gens[j]]] == mul[ext[x]][im[j]]
                       for x in range(n) if ext[x] >= 0 for j in range(i + 1)):
                    total += extend(i + 1, ext, im)
        return total

    phi = [-1] * n
    phi[ident] = ident
    return extend(0, phi, ())


def _divisors(n: int) -> list[int]:
    """The divisors of n in ascending order, paired as d and n // d up to sqrt(n)."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def find_m0(spec: GroupSpec) -> StructureReport:
    """Least exponent whose section powers form a normal subgroup.

    m0 divides m0_bound = |F|^2 * |Aut(F)|, so only the divisors of that
    bound are scanned.  The report is kept on the spec.
    """
    if spec._m0_report is None:
        m0_bound = spec.f_order ** 2 * automorphism_count(spec)
        m0 = next((m for m in _divisors(m0_bound) if is_power_normal(spec, m)), None)
        if m0 is None:
            raise InternalInconsistency(
                f"no divisor of {m0_bound} gives a normal section power for {spec.name}")
        spec._m0_report = StructureReport(m0=m0, m0_bound=m0_bound,
                                          is_space_group=(spec.d1 == 0),
                                          f_order=spec.f_order, rot_order=spec.rot_order)
    return spec._m0_report


def tf_slice(spec: GroupSpec) -> GroupSpec:
    """The subgroup generated by sections and kernel only (point group dropped)."""
    return GroupSpec(spec.name + "-tf", spec.d1, spec.d2, spec.f_elements,
                     spec.t_lifts, [iso.identity_isometry(spec.d1, spec.d2)],
                     tol=spec.tol)


# -- finite quotients --------------------------------------------------------

def grid_place(N: int, d2: int) -> np.ndarray:
    """The place vector of the grid [0, N)^d2: code(n) = n @ grid_place(N, d2)."""
    return N ** np.arange(d2 - 1, -1, -1, dtype=np.int64)


def grid_points(N: int, d2: int) -> np.ndarray:
    """The (N^d2, d2) int64 grid [0, N)^d2 in code order, which is the order
    of itertools.product(range(N), repeat=d2): row r holds r's base-N digits."""
    return np.arange(N ** d2, dtype=np.int64)[:, None] // grid_place(N, d2) % N


def _grid_steps(N: int, d2: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The nonzero points n of the grid [0, N)^d2 by their last nonzero
    coordinate i and its value v, in code order: one (i, rows, rows -
    N^(d2-1-i)) per (i, v), with rows the codes of every n with n_i = v and
    n_(>i) = 0, and rows - N^(d2-1-i) those of n - e_i, which code 0 or an
    earlier step holds."""
    for i in range(d2):
        place = N ** (d2 - 1 - i)
        for v in range(1, N):
            rows = place * (N * np.arange(N ** i) + v)
            yield i, rows, rows - place


def _outside(x: np.ndarray, bound: int) -> bool:
    """True iff some entry of the integer array x lies outside [0, bound).  Read
    as uint64, a negative entry is past every bound, so one max decides."""
    return x.size > 0 and int(np.asarray(x, dtype=np.int64).view(np.uint64).max()) >= bound


def _conjugates(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (len(g) * len(x), d1, d1) stack of g x g^-1 over two stacks of q blocks."""
    d1 = x.shape[-1]
    return (g[:, None] @ x[None] @ g[:, None].swapaxes(2, 3)).reshape(len(g) * len(x), d1, d1)


def _cocycle(N: int, grid: np.ndarray, fmul: np.ndarray, y: np.ndarray,
             sigma: np.ndarray, ident: int) -> np.ndarray:
    """The section cocycle t(a) t(b) = t(a+b) z(a,b), indexed [code(a), code(b)].

    With i the last nonzero coordinate of b and b' = b - e_i, t(b) = t(b') g_i,
    so z(a,b) = y_i(a+b') sigma_i(z(a,b')), where y_i(c) = z(c, e_i) and
    sigma_i(f) = g_i^-1 f g_i.  One step per coordinate i and value b_i fills
    the columns of every b with b_i > 0 = b_(>i), for all a at once
    (`_grid_steps`).
    """
    grid_n, d2 = grid.shape
    code = grid_place(N, d2)
    z = np.empty((grid_n, grid_n), dtype=np.int64)
    z[:, 0] = ident
    for i, cols, prev in _grid_steps(N, d2):
        z[:, cols] = fmul[y[i, (grid[:, None] + grid[prev]) % N @ code], sigma[i][z[:, prev]]]
    return z


def _mod(x: np.ndarray, m: int) -> np.ndarray:
    """x % m for an integer array and m > 0, as x - x // m * m: numpy divides
    int64 by a scalar several times faster than it takes the remainder."""
    return x - x // m * m


def _code(rows: np.ndarray, N: int, place: np.ndarray) -> np.ndarray:
    """code(n mod N) = sum_i (n_i mod N) place_i for a (d2, ...) array of rows n_i."""
    return (_mod(rows, N) * place.reshape(place.shape + (1,) * (rows.ndim - 1))).sum(axis=0)


class Presentation:
    """G's generator-level data at level m0, and the product of normal forms.

    T^m0 is normal and meets F only in 1, so it centralises F, and the
    tables depend on section exponents only through their residues mod m0;
    r(n) is the code of n mod m0.  With p*p' = t(s) f2 p'' (s unreduced),
    p*t(m)*p^-1 = t(P_p m) c(p,m), phi_p(f) = p f p^-1, psi_v(f) =
    t(v)^-1 f t(v) and t(a) t(b) = t(a+b) z(a,b), the product of x =
    t(a) f p and y = t(m) f' p' is, with v = P_p m,

        x*y = t(a+v+s) z(a, v+s) z(v, s) psi_s(psi_v(f) c(p,m) phi_p(f')) f2 p'',

    with c, psi and z read at the residues: integer lookups, exact while the
    exponent sums stay within int64.  All
    of it is factored once, at N = m0, by one `normal_forms` call (p*p',
    p*t(m)*p^-1 and t(m)*g_i) and one `_match_f` call (phi and psi), and
    `_cocycle` extends z(m, e_i) to z.  By p_reps index p, F index f and
    residue r: fmul (f, f), p_mul (p, p), p_mat (p, d2, d2), s (p, p, d2),
    f2 (p, p), phi (p, f), c (p, r), psi (r, f) and z (r, r).
    """

    def __init__(self, spec: GroupSpec):
        m0 = self.m0 = find_m0(spec).m0
        k, r, d1, d2 = spec.f_order, spec.rot_order, spec.d1, spec.d2
        d, self.p_mat, _, p_q = spec.points
        self.fmul = np.array(spec.f_mul_table(), dtype=np.int64).reshape(k, k)
        self.p_mul, one_f, self.p_identity = spec.p_mul_table(), spec.f_identity, spec.p_identity
        self.f_inv = np.argmax(self.fmul == one_f, axis=1)
        self.place = grid_place(m0, d2)                 # r(n) = n % m0 @ place
        cells, grid = m0 ** d2, grid_points(m0, d2)
        g_q = spec.section_q(grid)
        t_q = np.array([t.q for t in spec.t_lifts]).reshape(d2, d1, d1)
        units = np.eye(d2, dtype=np.int64)
        # p*p', p*t(m)*p^-1 and t(m)*g_i factored as one stack, sliced back out
        prod_q, prod_p, prod_tau = _rep_products(spec)
        n, f = normal_forms(
            spec, np.concatenate([prod_q, _conjugates(p_q, g_q),
                                  (g_q[None] @ t_q[:, None]).reshape(d2 * cells, d1, d1)]),
            np.concatenate([prod_p, np.full((r + d2) * cells, self.p_identity)]),
            np.concatenate([prod_tau, d * (grid @ self.p_mat.swapaxes(1, 2)).reshape(r * cells, d2),
                            d * (grid[None] + units[:, None]).reshape(d2 * cells, d2)]))
        f2, c, y = np.split(f, [r * r, r * r + r * cells])
        self.s, self.f2, self.c = n[:r * r].reshape(r, r, d2), f2.reshape(r, r), c.reshape(r, cells)
        # phi_p(f) and psi_v(f) matched against F in one pass
        kernel = _kernel(spec, _match_f(spec, np.concatenate(
            [_conjugates(p_q, spec.f_stack), _conjugates(g_q.swapaxes(1, 2), spec.f_stack)])))
        self.phi, self.psi = kernel[:r * k].reshape(r, k), kernel[r * k:].reshape(cells, k)
        self.z = _cocycle(m0, grid, self.fmul, y.reshape(d2, cells),
                          self.psi[self.residue(units)], one_f)
        # by lattice direction, for one take per array: P_p's entries and s
        self._p_rows = self.p_mat.reshape(r, d2 * d2).T.copy()
        self._s_rows = self.s.reshape(r * r, d2).T.copy()
        self._v_residue = self.residue(grid @ self.p_mat.swapaxes(1, 2))    # r(P_p m), by p, r(m)
        self._s_residue = self.residue(self.s).reshape(r * r)
        # p^-1 = p' f2^-1 t(s)^-1 for the p' with p*p' = t(s) f2
        p, p_inv = np.arange(r), np.argmax(self.p_mul == self.p_identity, axis=1)
        self.p_inverse = self.multiply((np.zeros((r, d2), dtype=np.int64), np.full(r, one_f), p_inv),
                                       self._kernel_inverse(self.s[p, p_inv], self.f2[p, p_inv]))

    def residue(self, n: np.ndarray) -> np.ndarray:
        """r(n) for an (..., d2) exponent stack n."""
        return _code(np.moveaxis(n, -1, 0), self.m0, self.place)

    def multiply(self, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The normal forms of x*y for two (n, f, p) triples of stacks, n of
        shape (k, d2) and f and p of shape (k,), by the formula above; the
        exponents are handled as (d2, k) rows and every table read by `take`."""
        (a, f, p), (m, f1, p1) = x, y
        a, m = a.T, m.T
        k, r, cells, m0, place = len(self.fmul), len(self.p_mul), len(self.psi), self.m0, self.place
        fmul, psi, z = self.fmul, self.psi, self.z
        pp = p * r + p1
        m2 = ((self._p_rows.take(p, axis=1).reshape(len(a), len(a), len(p)) * m).sum(axis=1)
              + self._s_rows.take(pp, axis=1))                  # v + s, v = P_p m
        pm = p * cells + _code(m, m0, place)
        rv, rs = self._v_residue.take(pm), self._s_residue.take(pp)
        w = fmul.take(fmul.take(psi.take(rv * k + f) * k + self.c.take(pm)) * k
                      + self.phi.take(p * k + f1))
        f_out = fmul.take(psi.take(rs * k + w) * k + self.f2.take(pp))
        f_out = fmul.take(z.take(rv * cells + rs) * k + f_out)
        f_out = fmul.take(z.take(_code(a, m0, place) * cells + _code(m2, m0, place)) * k + f_out)
        return (a + m2).T, f_out, self.p_mul.take(pp)

    def invert(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The normal forms of x^-1 for an (n, f, p) triple: for x = t(a) f p,
        the product of p^-1 and f^-1 t(a)^-1."""
        a, f, p = x
        return self.multiply(tuple(part[p] for part in self.p_inverse), self._kernel_inverse(a, f))

    def _kernel_inverse(self, a, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f^-1 t(a)^-1 = t(-a) psi_-a(f^-1) z(a,-a)^-1: t(a)^-1 = t(-a)
        z(a,-a)^-1, and t(-a) alone is wrong whenever the lifts do not commute."""
        neg = self.residue(-a)
        f = self.fmul[self.psi[neg, self.f_inv[f]], self.f_inv[self.z[self.residue(a), neg]]]
        return -a, f, np.full_like(f, self.p_identity)


class QuotientGroup:
    """G modulo N-th section powers: a codec over its ids, and its products.

    Every member has exactly one normal form t(n)*f*p with n in [0, N)^d2
    (paper result 1), and its id is the mixed-radix number

        id = (code(n) * |F| + f) * |P| + p,   code(n) = sum_i n_i N^(d2-1-i),

    so ids run over the normal forms in (n, f, p) order.  `_encode` and
    `_decode` are the layout arithmetic, the one conversion each way between
    exponents and ids; `ids` and `parts` are them with their range checks,
    and `ids_of` reads a list of `NormalForm`s through `ids`.
    `coset_reps`, `tf_indices`, `_collect`'s block view and the split
    (`reps.split_induced`), which takes x*h_p's id to be x's TF row * |P| + p,
    read the layout too.  The quotient holds no product data: `products`
    and `inverses` take id arrays, decode them, evaluate the spec's
    `Presentation` on the normal forms and encode the results with n
    reduced mod N, unless the multiplication table is built or a request
    is large enough to pay for it (TABLE_BREAK_EVEN); `mul` and `inv` are
    their scalar forms, and `mult_table` the table.
    """

    def __init__(self, spec: GroupSpec, N: int):
        self.spec = spec
        self.N = N
        self.order = N ** spec.d2 * spec.f_order * spec.rot_order
        self.elements = range(self.order)
        self.identity = spec.f_identity * spec.rot_order + spec.p_identity     # n = 0
        self._table: np.ndarray | None = None
        self._inverse: np.ndarray | None = None
        self._atlases: dict = {}    # seed -> DualAtlas, kept by dual.enumerate_dual

    @functools.cached_property
    def local(self) -> np.ndarray:
        """id -> row of a stack over `elements`: the identity map."""
        return np.arange(self.order, dtype=np.int32)

    @functools.cached_property
    def exponents(self) -> np.ndarray:
        """The (|G|, d2) section exponents n of the elements t(n)*f*p, in id order."""
        return self.parts(self.elements)[0]

    # -- the codec ------------------------------------------------------------

    @functools.cached_property
    def _place(self) -> np.ndarray:
        """code(n) = n @ _place, built on first use: a quotient whose code
        range passes int64 is constructed but never encodes."""
        return grid_place(self.N, self.spec.d2)

    def ids(self, n, f, p) -> np.ndarray:
        """Ids of the normal forms t(n)*f*p: n is an (..., d2) int64 exponent
        stack, reduced mod N, and f and p broadcast against its leading axes.
        Exponents past int64 are the caller's to reduce mod N first."""
        spec = self.spec
        try:
            n, f, p = (np.asarray(x, dtype=np.int64) for x in (n, f, p))
        except OverflowError as exc:
            raise ValueError(f"not normal forms of {spec.name}: an entry past int64") from exc
        if n.shape[-1:] != (spec.d2,) or _outside(f, spec.f_order) or _outside(p, spec.rot_order):
            raise ValueError(f"not normal forms of {spec.name}: exponents of shape {n.shape}, "
                             f"or f or p out of range")
        # the (d2, ...) rows of n, as np.moveaxis(n, -1, 0) but without its 3 us a call
        return self._encode(n.transpose(n.ndim - 1, *range(n.ndim - 1)), f, p)

    def ids_of(self, forms) -> np.ndarray:
        """The ids of a sequence of `NormalForm`s, in order, by one `ids` call;
        each exponent, of any size, is reduced mod N as a Python int first."""
        n = [[x % self.N for x in nf.n] for nf in forms]
        return self.ids(np.array(n, dtype=np.int64).reshape(len(n), self.spec.d2),
                        [nf.f for nf in forms], [nf.p for nf in forms])

    def parts(self, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, f, p) of an array of ids: n as an (..., d2) array, f and p in
        ids' shape; ValueError for an id outside [0, order)."""
        x = self._checked_ids(ids)
        n, f, p = self._decode(x.reshape(-1))
        return n.reshape(x.shape + (self.spec.d2,)), f.reshape(x.shape), p.reshape(x.shape)

    def _checked_ids(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if _outside(x, self.order):
            raise ValueError(f"id outside [0, {self.order})")
        return x

    def _encode(self, rows: np.ndarray, f, p) -> np.ndarray:
        """(code(n mod N) * |F| + f) * |P| + p for (d2, ...) exponent rows n_i and
        f and p that broadcast against the rows' trailing axes: the one encoder."""
        return (_code(rows, self.N, self._place) * self.spec.f_order + f) * self.spec.rot_order + p

    def _decode(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, f, p) of a 1-D array of checked ids, n as the transpose of
        (d2, k) rows: the one decoder."""
        k, r = self.spec.f_order, self.spec.rot_order
        rest, code = ids // r, ids // (k * r)
        return _mod(code // self._place[:, None], self.N).T, rest - code * k, ids - rest * r

    # -- products ---------------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        """i*j for two ids; see `products`."""
        return int(self.products(i, j))

    def inv(self, i: int) -> int:
        return int(self.inverses(i))

    def products(self, a, b) -> np.ndarray:
        """The ids of a*b for two id arrays that broadcast together.

        Ids outside [0, order) are refused first, with ValueError, then
        orders above DEFAULT_CAP (`check_cap`).  Once the table is built, it
        is indexed with them, and a request for more than order^2 /
        TABLE_BREAK_EVEN products builds it first.  Any other request is
        evaluated pair by pair, by the spec's `Presentation`.
        """
        a, b = self._checked_ids(a), self._checked_ids(b)
        self.check_cap()
        if self._table is None and np.broadcast(a, b).size * TABLE_BREAK_EVEN > self.order ** 2:
            self.mult_table()
        if self._table is not None:
            return self._table[a, b]
        return self._collected(*np.broadcast_arrays(a, b))

    def inverses(self, x) -> np.ndarray:
        """The ids of x^-1 for an id array, checked as `products` checks them."""
        x = self._checked_ids(x)
        self.check_cap()
        if self._table is not None:
            return self._inverse[x]
        return self._inverted(x)

    def check_cap(self) -> None:
        """CapExceeded for orders above DEFAULT_CAP, which get no products."""
        if self.order > DEFAULT_CAP:
            raise CapExceeded(f"quotient order {self.order} exceeds the table cap {DEFAULT_CAP}")

    def _collected(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a*b by the presentation's formula, for id arrays of one shape."""
        return self._evaluate(self.spec.presentation.multiply, a, b)

    def _inverted(self, x: np.ndarray) -> np.ndarray:
        """x^-1 by the presentation's formula, for an id array."""
        return self._evaluate(self.spec.presentation.invert, x)

    def _evaluate(self, op, *ids: np.ndarray) -> np.ndarray:
        """op on the normal forms of id arrays of one shape, 8192 ids at a
        time: decode, apply op, reduce n mod N and encode."""
        out = np.empty(ids[0].shape, dtype=np.int64)
        flat, step = out.reshape(-1), 2 ** 13
        for lo in range(0, out.size, step):
            n, f, p = op(*(self._decode(x.flat[lo:lo + step]) for x in ids))
            flat[lo:lo + step] = self._encode(n.T, f, p)
        return out

    def mult_table(self) -> np.ndarray:
        """Full multiplication table, built on first use and checked.

        Only the rows of the generators t(e_i), f and p are evaluated by the
        spec's `Presentation`, which holds at every multiple N of m0: T^N and
        F are normal and meet only in 1, so exponents reduce mod N.  As
        (x*y)*j = x*(y*j), row x*y is row y read through row x, which gives
        row f*p from rows f and p, row t(a) from rows t(a - e_i) and t(e_i),
        and row t(a)*f*p from rows t(a) and f*p.  Each row's identity gives
        the inverses, and the spot check compares the table with the
        formula.  Orders above DEFAULT_CAP are refused.
        """
        if self._table is None:
            self.check_cap()
            n = self.order
            table, step, cols = self._collect(), max(1, 2 ** 20 // n), []
            for r in range(0, n, step):     # the identity scan, one row block at a time
                rows, c = np.nonzero(table[r:r + step] == self.identity)
                if not np.array_equal(rows, np.arange(min(step, n - r))):
                    raise InternalInconsistency("a multiplication table row lacks the identity")
                cols.append(c)
            self._table, self._inverse = table, np.concatenate(cols)
            try:
                # each product path checks the other on the pairs read, a * a^-1 among them
                left, right = self.spot_check()
                if not np.array_equal(table[left, right], self._collected(left, right)):
                    raise InternalInconsistency("the table and the collection formula disagree")
            except InternalInconsistency:
                self._table = self._inverse = None
                raise
        return self._table

    def _collect(self) -> np.ndarray:
        """The multiplication table from the generators' rows; see `mult_table`."""
        n, N, spec, ids = self.order, self.N, self.spec, np.arange(self.order)
        d2, k, r = spec.d2, spec.f_order, spec.rot_order
        gens = self._evaluate(spec.presentation.multiply,
                              *np.broadcast_arrays(self.generators[:, None], ids))
        table = np.empty((n, n), dtype=np.int32)
        blocks = table.reshape(n // (k * r), k, r, n)   # blocks[code(a), f, p]: row of t(a) f p
        np.take(gens[d2:d2 + k], gens[d2 + k:], axis=1, out=blocks[0])
        # t(a) = t(a - e_i) t(e_i) for the last nonzero coordinate i of a
        sections = blocks[:, spec.f_identity, spec.p_identity]
        for i, rows, prev in _grid_steps(N, d2):
            sections[rows] = sections[prev].take(gens[i], axis=1)
        step = max(1, 2 ** 16 // n)
        for a0 in range(1, len(sections), step):
            # every index is an id; "clip" lets take write into out without a buffer
            np.take(sections[a0:a0 + step].copy(), blocks[0], axis=1,
                    out=blocks[a0:a0 + step], mode="clip")
        return table

    @functools.cached_property
    def generators(self) -> np.ndarray:
        """Ids of t(e_i) for every lattice direction i, of every element of F
        and of every p_rep: a generating set of the quotient, built once as a
        read-only int64 array."""
        spec, zero = self.spec, np.zeros(self.spec.d2, dtype=np.int64)
        units = self.ids(np.eye(spec.d2, dtype=np.int64), spec.f_identity, spec.p_identity)
        kernel = self.ids(zero, range(spec.f_order), spec.p_identity)
        points = self.ids(zero, spec.f_identity, range(spec.rot_order))
        gens = np.concatenate([units, kernel, points])
        gens.flags.writeable = False
        return gens

    def tf_indices(self) -> range:
        """Ids with point index p_identity: p is the last digit of an id."""
        return range(self.spec.p_identity, self.order, self.spec.rot_order)

    def tf_subgroup(self) -> "SubgroupView":
        """The TF part as a view, built once per quotient."""
        return self._tf

    @functools.cached_property
    def _tf(self) -> "SubgroupView":
        return SubgroupView(self, self.tf_indices())

    @property
    def coset_reps(self) -> np.ndarray:
        """Ids of the p_reps h_p = t(0)*f_id*p, in p order.  h_p with p =
        p_identity is the identity, so for x in TF the id of x*h_p is
        (TF row of x) * |P| + p: the products x*h_p, in (x, p) order, are
        the ids in order."""
        return self.identity - self.spec.p_identity + np.arange(self.spec.rot_order)

    @functools.cached_property
    def coset_rows(self) -> np.ndarray:
        """rows[g, i, j] is the TF row of h_i^-1 g h_j for the p_reps h_i, h_j,
        or -1 when that lies outside TF: for each j exactly one i has it
        inside, as g permutes the cosets h_i TF.  Built once from the table."""
        table, reps = self.mult_table(), self.coset_reps
        return self._tf.local[table[table[self._inverse[reps]].T[..., None], reps]]

    @functools.cached_property
    def coset_conjugation(self) -> np.ndarray:
        """The (|P|, |TF|) TF rows of h_p^-1 t h_p for the p_reps h_p and t in
        TF, the diagonal of `coset_rows`: g_p . rho has the character
        rho.char[coset_conjugation[p]]."""
        rows = np.diagonal(self.coset_rows[self.tf_indices()], axis1=1, axis2=2).T
        if (rows < 0).any():
            raise InternalInconsistency("conjugation left the subgroup")
        return rows

    def projection(self, coarse: "QuotientGroup") -> np.ndarray:
        """Image ids of all elements under the quotient map onto G mod T^M, M | N."""
        if self.N % coarse.N != 0 or coarse.spec is not self.spec:
            raise BadModulus("projection target must be a coarser quotient of the same spec")
        return coarse.ids(*self.parts(self.elements))

    def spot_check(self, rng=None) -> tuple[np.ndarray, np.ndarray]:
        """Associativity and inverses on 16 drawn triples; rng defaults to
        default_rng(0).  The first failing triple names the error.  Returns
        the pairs (left[i], right[i]) whose products it read."""
        rng = rng or np.random.default_rng(0)
        a, b, c = rng.integers(self.order, size=(3, 16))
        ab, bc, inv = self.products(a, b), self.products(b, c), self.inverses(a)
        left, right = np.concatenate([a, b, ab, a, a]), np.concatenate([b, c, c, bc, inv])
        abc, a_bc, one = self.products(left[32:], right[32:]).reshape(3, 16)
        assoc, bad = abc != a_bc, (abc != a_bc) | (one != self.identity)
        if bad.any():
            raise InternalInconsistency("associativity failed in quotient" if assoc[bad.argmax()]
                                        else "inverse failed in quotient")
        return left, right


class SubgroupView:
    """A subgroup of a quotient addressed by the parent's element ids.

    `elements` holds each member's id once, in ascending order (int64); the
    ids given are checked as the parent checks ids, a repeat counts once, and
    the identity must be among them.  `local[i]` is the position of parent id
    i in `elements`, or -1 outside the subgroup.  `holds` tests membership,
    and `generated` builds the subgroup that a set of ids generates.
    """

    def __init__(self, parent: QuotientGroup, ids):
        self.parent = parent
        self.local = np.full(parent.order, -1, dtype=np.int32)
        self.local[parent._checked_ids(ids)] = 0
        self.elements = np.flatnonzero(self.local == 0)
        self.local[self.elements] = np.arange(len(self.elements))
        self.order = len(self.elements)
        self.identity = parent.identity
        if self.local[self.identity] < 0:
            raise InternalInconsistency("subgroup view lacks the identity")

    @classmethod
    def generated(cls, parent: QuotientGroup, seeds) -> "SubgroupView":
        """The subgroup generated by the ids seeds: the members found last are
        multiplied by the seeds, through `parent.products`, until no product
        is new.  In a finite group the words in the seeds are the subgroup
        they generate."""
        inside = np.zeros(parent.order, dtype=bool)
        inside[parent._checked_ids(seeds)] = True
        seeds = np.flatnonzero(inside)
        inside[parent.identity] = True
        frontier = np.flatnonzero(inside)
        while len(frontier):
            reached = inside.copy()
            reached[parent.products(frontier[:, None], seeds)] = True
            frontier, inside = np.flatnonzero(reached ^ inside), reached
        return cls(parent, np.flatnonzero(inside))

    def holds(self, ids) -> bool:
        """True iff every id in the array of parent ids is a member."""
        return bool((self.local[ids] >= 0).all())

    @functools.cached_property
    def exponents(self) -> np.ndarray:
        """The (|H|, d2) section exponents of the elements, in element order."""
        return self.parent.parts(self.elements)[0]


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
    spec._quotients[N] = q
    return q
