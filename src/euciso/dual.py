"""Wave-vector atlas: dual classes, little space groups, orbits and labels.

Wave vectors live in dual-lattice coordinates, so the dual lattice is the
integer lattice and the point group acts through the inverse-transpose of
its lattice matrices.  All orbit arithmetic is exact over Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import isometry as iso
from .errors import InternalInconsistency
from .groups import GroupSpec, QuotientGroup, build_quotient, find_m0
from .reps import (STRUCT_TOL, Representation, chi, dual_action, equivalent, induce,
                   lift_representation, char_norm_sq, irreps, mackey_irreducible,
                   multiplicity, p_rep_element, quotient_irreps,
                   scale_by_character)

FracVec = tuple[Fraction, ...]


def dual_point_matrix(p) -> iso.IntMatrix:
    """Action of a lattice point operation on dual coordinates: P^-T."""
    return iso.pmat_transpose(iso.pmat_inv(iso.int_matrix(p)))


def _mod1(k: FracVec) -> FracVec:
    return tuple(x % 1 for x in k)


def k_shift_reps(spec: GroupSpec, m: int) -> list[FracVec]:
    """Representatives of (dual lattice / m) modulo the dual lattice."""
    return [tuple(Fraction(a, m) for a in vec)
            for vec in product(range(m), repeat=spec.d2)]


# -- the representative set of dual(TF) ---------------------------------------

@dataclass
class RepSet:
    """Dual classes of the translation-kernel part modulo the twisted action."""

    spec: GroupSpec
    m0: int
    quotient: QuotientGroup
    classes: list[Representation]
    provenance: list[dict] = field(default_factory=list)


def rep_set(spec: GroupSpec, seed: int = 0) -> RepSet:
    """Greedy classification of the dual of (TF)_m0 under the twisted action.

    Candidates rho, rho' are identified when some coset representative g
    and shift k satisfy g . rho ~ chi_k rho'.
    """
    m0 = find_m0(spec).m0
    q = build_quotient(spec, m0)
    sub = q.tf_subgroup()
    candidates = irreps(sub, seed=seed)
    shifts = k_shift_reps(spec, m0)
    coset = [p_rep_element(q, p) for p in range(spec.rot_order)]

    classes: list[Representation] = []
    twists: list[list[Representation]] = []     # chi_k * class for every shift k
    provenance: list[dict] = []
    for ci, rho in enumerate(candidates):
        moved = [(p, dual_action(q, coset[p], rho)) for p in range(spec.rot_order)]
        match = None
        for ki, kept in enumerate(classes):
            if kept.dim != rho.dim:
                continue
            for p, rho_p in moved:
                for si, twisted in enumerate(twists[ki]):
                    if equivalent(rho_p, twisted):
                        match = {"candidate": ci, "matched_class": ki,
                                 "p_index": p, "shift": shifts[si]}
                        break
                if match:
                    break
            if match:
                break
        if match is None:
            classes.append(rho)
            twists.append([scale_by_character(chi(spec, k), rho) for k in shifts])
        else:
            provenance.append(match)
    return RepSet(spec, m0, q, classes, provenance)


# -- little space groups -------------------------------------------------------

@dataclass
class LittleGroup:
    """Point parts and dual shifts that stabilize one dual class.

    `pairs` maps a p_rep index to all shift representatives s in
    (L*/m0)/L* with g_p . rho ~ chi_s rho; the orbit action on a wave
    vector k is k -> D_p k + s modulo the dual lattice.
    """

    spec: GroupSpec
    rho_index: int
    m0: int
    pairs: dict[int, list[FracVec]]
    duals: dict[int, iso.IntMatrix]

    def operations(self) -> list[tuple[iso.IntMatrix, FracVec]]:
        out = []
        for p, shifts in self.pairs.items():
            for s in shifts:
                out.append((self.duals[p], s))
        return out

    def translation_shifts(self) -> list[FracVec]:
        ident = iso.identity_int_matrix(self.spec.d2)
        return [s for d, s in self.operations() if d == ident]


def little_group(spec: GroupSpec, rs: RepSet, rho_index: int) -> LittleGroup:
    """All (point part, shift) pairs fixing the class up to a character."""
    q = rs.quotient
    rho = rs.classes[rho_index]
    shifts = k_shift_reps(spec, rs.m0)
    twists = [scale_by_character(chi(spec, k), rho) for k in shifts]
    pairs: dict[int, list[FracVec]] = {}
    duals: dict[int, iso.IntMatrix] = {}
    for p in range(spec.rot_order):
        g = p_rep_element(q, p)
        moved = dual_action(q, g, rho)
        hits = [shifts[si] for si, twisted in enumerate(twists)
                if equivalent(moved, twisted)]
        if hits:
            pairs[p] = hits
            duals[p] = dual_point_matrix(spec.p_reps[p].p)
    lg = LittleGroup(spec, rho_index, rs.m0, pairs, duals)
    _check_little_group(lg)
    return lg


def _check_little_group(lg: LittleGroup) -> None:
    spec = lg.spec
    ident = iso.identity_int_matrix(spec.d2)
    if spec.p_identity not in lg.pairs:
        raise InternalInconsistency("little group misses the identity coset")
    trans = {_mod1(s) for s in lg.translation_shifts()}
    if _mod1((Fraction(0),) * spec.d2) not in trans:
        raise InternalInconsistency("dual lattice does not embed in the little group")
    for s in trans:
        if any((x * lg.m0).denominator != 1 for x in s):
            raise InternalInconsistency("little-group translations exceed L*/m0")
    ops = lg.operations()
    keyed = {(d, _mod1(s)) for d, s in ops}
    for d1, s1 in ops:
        for d2, s2 in ops:
            comp = (iso.pmat_mul(d1, d2),
                    _mod1(tuple(a + b for a, b in zip(s1, iso.pmat_vec(d1, s2)))))
            if comp not in keyed:
                raise InternalInconsistency("little group is not closed")


# -- the null set --------------------------------------------------------------

def null_set_member(spec: GroupSpec, k, tol: float | None = None) -> bool:
    """True iff some nontrivial point part fixes k modulo L*/m0.

    Rational input is tested exactly; float input within tol of the
    nearest lattice point counts as a member.
    """
    m0 = find_m0(spec).m0
    ident = iso.identity_int_matrix(spec.d2)
    exact = all(isinstance(x, (int, Fraction)) for x in k)
    if exact:
        kf = tuple(Fraction(x) for x in k)
    for p in spec.p_reps:
        d = dual_point_matrix(p.p)
        if d == ident:
            continue
        if exact:
            moved = iso.pmat_vec(d, kf)
            if all(((a - b) * m0).denominator == 1 for a, b in zip(moved, kf)):
                return True
        else:
            t = tol if tol is not None else spec.tol
            moved = [sum(d[i][j] * float(k[j]) for j in range(spec.d2)) - float(k[i])
                     for i in range(spec.d2)]
            if all(abs(m0 * x - round(m0 * x)) <= m0 * t for x in moved):
                return True
    return False


# -- orbits and labels ---------------------------------------------------------

@dataclass(frozen=True)
class WaveLabel:
    rho_index: int
    k: FracVec
    orbit_size: int
    in_null_set: bool


def wave_orbits(spec: GroupSpec, rs: RepSet, rho_index: int, N: int) -> list[WaveLabel]:
    """Partition of the N-grid of wave vectors under one little group.

    The canonical representative of an orbit is its lexicographically
    least member inside [0,1)^d2.
    """
    if N % rs.m0 != 0:
        raise InternalInconsistency("orbit level must be a multiple of m0")
    lg = little_group(spec, rs, rho_index)
    ops = lg.operations()
    grid = k_shift_reps(spec, N)
    seen: set[FracVec] = set()
    labels = []
    for start in grid:
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for d, s in ops:
                nxt = _mod1(tuple(a + b for a, b in
                                  zip(iso.pmat_vec(d, cur), s)))
                if any((x * N).denominator != 1 for x in nxt):
                    raise InternalInconsistency("orbit left the wave-vector grid")
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        rep = min(orbit)
        flags = {null_set_member(spec, k) for k in orbit}
        if len(flags) != 1:
            raise InternalInconsistency("null-set flag varies along an orbit")
        labels.append(WaveLabel(rho_index, rep, len(orbit), flags.pop()))
    if sum(l.orbit_size for l in labels) != len(grid):
        raise InternalInconsistency("orbit sizes do not partition the grid")
    return sorted(labels, key=lambda l: l.k)


# -- the labeled dual of a finite quotient --------------------------------------

@dataclass
class LabelReport:
    label: WaveLabel
    induced_dim: int
    irreducible: bool
    char_norm: float
    decomposition: dict[int, int]


@dataclass
class DualAtlas:
    spec: GroupSpec
    N: int
    seed: int
    rep_set: RepSet
    labels: list[LabelReport]
    census_dims: list[int]
    checks: dict[str, bool]


def enumerate_dual(spec: GroupSpec, N: int, seed: int = 0) -> DualAtlas:
    """Emit one induced representation per wave label and audit the result.

    Checks performed: pairwise inequivalence of the emitted representations,
    irreducibility of every label off the null set (stabilizer test agreeing
    with the character norm), exhaustion of the quotient dual by the label
    decompositions, and coverage of every irreducible as a subrepresentation.
    Coverage is computed from restrictions to TF by Frobenius reciprocity,
    <Ind tau, sigma> = <tau, Res sigma>, and must reproduce every
    decomposition, which is computed from induced characters.
    """
    rs = rep_set(spec, seed=seed)
    q = build_quotient(spec, N)
    irr = quotient_irreps(q, seed=seed)
    sub = q.tf_subgroup()
    restricted = [Representation(sub, sigma.mats[list(sub.elements)]) for sigma in irr]
    reports: list[LabelReport] = []
    reciprocity: list[dict[int, int]] = []
    for rho_index, rho in enumerate(rs.classes):
        lifted = lift_representation(rho, q)
        for label in wave_orbits(spec, rs, rho_index, N):
            wave = chi(spec, label.k)
            twisted = scale_by_character(wave, lifted)
            ind = induce(q, twisted)
            norm = char_norm_sq(ind)
            irreducible = mackey_irreducible(q, twisted, ind)
            decomposition = {}
            for j, sigma in enumerate(irr):
                m = multiplicity(ind, sigma)
                if m:
                    decomposition[j] = m
            reports.append(LabelReport(label, ind.dim, irreducible,
                                       float(norm), decomposition))
            reciprocity.append({j: m for j, res in enumerate(restricted)
                                if (m := multiplicity(twisted, res))})

    checks = {}
    checks["pairwise_inequivalent"] = _pairwise_inequivalent(reports)
    checks["off_null_irreducible"] = all(
        r.irreducible and abs(r.char_norm - 1) < STRUCT_TOL
        for r in reports if not r.label.in_null_set)
    covered = set()
    for r in reports:
        covered |= set(r.decomposition)
    checks["exhaustion"] = (covered == set(range(len(irr)))
                            and sum(s.dim ** 2 for s in irr) == q.order)
    checks["subrep_cover"] = (
        set().union(*reciprocity) == set(range(len(irr)))
        and all(rec == r.decomposition for rec, r in zip(reciprocity, reports)))
    checks["dimension_count"] = all(
        sum(irr[j].dim * m for j, m in r.decomposition.items()) == r.induced_dim
        for r in reports)
    census = sorted(s.dim for s in irr)
    return DualAtlas(spec, N, seed, rs, reports, census, checks)


def _pairwise_inequivalent(reports: list[LabelReport]) -> bool:
    # decompositions determine characters; distinct labels must differ
    seen = []
    for r in reports:
        key = (r.induced_dim, tuple(sorted(r.decomposition.items())))
        if key in seen:
            return False
        seen.append(key)
    return True
