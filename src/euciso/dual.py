"""Wave-vector atlas: dual classes, little space groups, orbits and labels.

Wave vectors live in dual-lattice coordinates, so the dual lattice is the
integer lattice and the point group acts through the inverse-transpose of
its lattice matrices (`GroupSpec.dual_points`).  Orbit and null-set
arithmetic is exact: a wave vector k is held as an integer vector a over
one denominator, k = a / den, and the dual action is integer arithmetic
modulo den.  So is a little group: two integer arrays, p_rep indices p and
shifts b = m0 s on the grid [0, m0)^d2 (`groups.grid_points`).

`enumerate_dual` turns the labels into the quotient's irreducibles, one
class rho at a time and one array pass over the class's labels: their
integer numerators a = N k give every phase in one gather
(`reps.wave_phases`), and from those come their twisted and induced
characters, norms and Mackey verdicts.  Each label's fate is its
stabilizer order, read exactly from its wave orbit, not its null-set flag:
an irreducible induced representation (order 1) is induced only when
`DualAtlas.stacks` is read, from the class lifted once and the label's
numerators, which the atlas keeps; the class's reducible labels are split
together at once on the TF blocks of their twisted classes
(`reps.split_induced`), averaging over TF and the coset representatives
rather than over the whole quotient.  The basis is sorted by dimension
first, so the atlas holds it as one stack per dimension, in order.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InternalInconsistency
from .groups import GroupSpec, QuotientGroup, build_quotient, find_m0, grid_place, grid_points
from .reps import (FINGERPRINT_DECIMALS, GATHER_BYTES, STRUCT_TOL, Representation,
                   check_irreducibles, distinct_constituents, induce, induced_character,
                   integral, irreducible_order, irreps, lift_representation, mackey_irreducible,
                   split_induced, wave_phases)

FracVec = tuple[Fraction, ...]


# -- the representative set of dual(TF) and its little groups ------------------

@dataclass
class LittleGroup:
    """The operations (D_p, s) that stabilize one dual class, as two integer arrays.

    Operation i is the p_rep index p[i] with the shift s = b[i] / m0 in
    (L*/m0)/L*, b[i] in [0, m0)^d2, for every pair with g_p . rho ~ chi_s
    rho: p ascending, then the shifts in grid order.  The orbit action on a
    wave vector k is k -> D_p k + s modulo the dual lattice, with D_p the
    p-th entry of `GroupSpec.dual_points`; the stabilizer order is len(p).
    """

    spec: GroupSpec
    rho_index: int
    m0: int
    p: np.ndarray       # (ops,) p_rep indices
    b: np.ndarray       # (ops, d2) m0 * s


@dataclass
class RepSet:
    """Dual classes of the translation-kernel part modulo the twisted action,
    with the little group of each class (`little_groups[i]` for `classes[i]`)."""

    spec: GroupSpec
    m0: int
    quotient: QuotientGroup
    classes: list[Representation]
    little_groups: list[LittleGroup]
    provenance: list[dict] = field(default_factory=list)


def _twist_hits(moved: np.ndarray, twists: np.ndarray) -> np.ndarray:
    """(|P|, |shifts|) mask: character moved[p] equals twists[s] within STRUCT_TOL."""
    return np.abs(twists[None] - moved[:, None]).max(axis=2) <= STRUCT_TOL


def rep_set(spec: GroupSpec, seed: int = 0) -> RepSet:
    """Greedy classification of the dual of (TF)_m0 under the twisted action.

    Candidates rho, rho' are identified when some coset representative g_p
    and shift s satisfy g_p . rho ~ chi_s rho'.  This is the one place that
    decides the relation, on characters: g_p . rho has the character
    rho.char[q.coset_conjugation[p]] and chi_s rho the shift's phases
    times rho.char, for the shifts s = b / m0 on the grid b in [0, m0)^d2.
    A candidate that matches no kept class becomes one, and matching it
    against its own twists gives its little group.
    """
    m0 = find_m0(spec).m0
    q = build_quotient(spec, m0)
    sub = q.tf_subgroup()
    shifts = grid_points(m0, spec.d2)
    conj = q.coset_conjugation
    phases = wave_phases(shifts, m0, sub.exponents)

    # twists[i] holds the characters chi_s * classes[i], one row per shift s
    classes, twists, little_groups, provenance = [], [], [], []
    for ci, rho in enumerate(irreps(sub, seed=seed)):
        moved = rho.char[conj]
        for ki, kept in enumerate(twists):
            hits = np.argwhere(_twist_hits(moved, kept))    # (p, shift) pairs, p first
            if len(hits):
                p, si = hits[0].tolist()
                provenance.append({"candidate": ci, "matched_class": ki, "p_index": p,
                                   "shift": tuple(Fraction(int(x), m0) for x in shifts[si])})
                break
        else:
            twists.append(phases * rho.char)
            p, si = np.nonzero(_twist_hits(moved, twists[-1]))
            lg = LittleGroup(spec, len(classes), m0, p, shifts[si])
            _check_little_group(lg)
            classes.append(rho)
            little_groups.append(lg)
    return RepSet(spec, m0, q, classes, little_groups, provenance)


def _check_little_group(lg: LittleGroup) -> None:
    """InternalInconsistency unless lg holds the identity coset and the dual
    lattice and is closed under composition.

    Closure is one integer-array test: each operation (p, b) is one integer
    code, and the codes of all pairwise compositions (p1 p2, b1 + D_p1 b2
    mod m0) must lie among them."""
    spec, m0, p, b = lg.spec, lg.m0, lg.p, lg.b
    identity = p == spec.p_identity
    if not identity.any():
        raise InternalInconsistency("little group misses the identity coset")
    if not (b[identity] == 0).all(axis=1).any():
        raise InternalInconsistency("dual lattice does not embed in the little group")

    def codes(p, b):    # (p, b) as one integer
        return p * m0 ** spec.d2 + b @ grid_place(m0, spec.d2)

    # (p1, b1)(p2, b2) = (p1 p2, b1 + D_p1 b2) for every pair at once
    moved = np.einsum("aij,bj->abi", spec.dual_points[p], b)
    comp = codes(spec.p_mul_table()[p[:, None], p[None, :]], (b[:, None] + moved) % m0)
    if not np.isin(comp, codes(p, b)).all():
        raise InternalInconsistency("little group is not closed")


# -- the null set --------------------------------------------------------------

def fixed_by_a_point_part(spec: GroupSpec, a: np.ndarray, den: int) -> np.ndarray:
    """For each row a of an (n, d2) integer stack: does some nontrivial point
    part fix k = a / den modulo L*/m0, i.e. m0 (D_p - I) a = 0 mod den?"""
    m0 = find_m0(spec).m0
    moved = np.delete(spec.dual_points, spec.p_identity, axis=0) - np.eye(spec.d2, dtype=np.int64)
    return ((m0 * np.einsum("pij,nj->npi", moved, a)) % den == 0).all(axis=2).any(axis=1)


def null_set_member(spec: GroupSpec, k, tol: float | None = None) -> bool:
    """True iff some nontrivial point part fixes k modulo L*/m0.

    Rational input is tested exactly; float input within tol of the
    nearest lattice point counts as a member.
    """
    if all(isinstance(x, (int, Fraction)) for x in k):
        k = [Fraction(x) for x in k]
        den = math.lcm(*(x.denominator for x in k))
        a = np.array([[int(x * den) for x in k]], dtype=object)   # exact at any size
        return bool(fixed_by_a_point_part(spec, a, den)[0])
    m0 = find_m0(spec).m0
    t = tol if tol is not None else spec.tol
    kf = np.array(k, dtype=float)
    x = m0 * (np.delete(spec.dual_points, spec.p_identity, axis=0) @ kf - kf)
    return bool((np.abs(x - np.round(x)) <= m0 * t).all(axis=1).any())


# -- orbits and labels ---------------------------------------------------------

@dataclass(frozen=True)
class WaveLabel:
    rho_index: int
    k: FracVec
    orbit_size: int
    in_null_set: bool


def wave_orbits(spec: GroupSpec, rs: RepSet, rho_index: int, N: int) -> list[WaveLabel]:
    """Partition of the N-grid of wave vectors under one little group.

    Grid points are integer vectors a in [0, N)^d2, k = a / N, in code
    order, and the operation (p, b) of the little group's arrays maps a to
    D_p a + (N / m0) b mod N, all of them at once.  The little group is
    closed, so the orbit of a point is the set of its images; the
    canonical representative is the lexicographically least one.
    """
    if N % rs.m0 != 0:
        raise InternalInconsistency("orbit level must be a multiple of m0")
    lg, grid = rs.little_groups[rho_index], grid_points(N, spec.d2)
    images = (np.einsum("oij,nj->noi", spec.dual_points[lg.p], grid) + (N // rs.m0) * lg.b) % N
    codes = images @ grid_place(N, spec.d2)         # (grid point, operation) -> image row
    reps, orbit_of, counts = np.unique(codes.min(axis=1), return_inverse=True,
                                       return_counts=True)
    images_of_rep = np.sort(codes[reps], axis=1)
    sizes = (np.diff(images_of_rep, axis=1) != 0).sum(axis=1) + 1
    if not np.array_equal(sizes, counts):
        raise InternalInconsistency("orbit sizes do not partition the grid")
    null = fixed_by_a_point_part(spec, grid, N)
    hits = np.bincount(orbit_of, weights=null, minlength=len(reps))
    if ((hits != 0) & (hits != counts)).any():
        raise InternalInconsistency("null-set flag varies along an orbit")
    over_n = [Fraction(j, N) for j in range(N)]
    return [WaveLabel(rho_index, tuple(over_n[x] for x in point), size, bool(hit))
            for point, size, hit in zip(grid[reps].tolist(), counts.tolist(), hits.tolist())]


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
    """The labeled dual of G mod T^N: the one handle on q's irreducible basis,
    which every Fourier table holds.

    In basis order, `dims` gives each irreducible's dimension and `sources`
    its (|G|, d, d) stack when it was split from a label whose induced
    representation is reducible, or else the index in `labels` of the label
    whose induced representation it is.  The Mackey verdict
    (`LabelReport.irreducible`) decides which, not the null-set flag.
    `lifted` holds each class rho of the rep set on q's TF part, and
    `numerators` each label's integer numerators a, k = a / N: the
    irreducible of a lazy label is Ind(chi_k rho), built from those two
    alone.  The basis is sorted by dimension first
    (`reps.irreducible_order`), so `stacks` is one (|G|, k, d, d) array per
    dimension d, ascending, whose k slots are the next k irreducibles of
    the basis; the Fourier transform reads them whole.  Each of `irreps` is
    a (|G|, d, d) view into its slot, and `basis` fingerprints them.
    """

    q: QuotientGroup
    seed: int
    rep_set: RepSet
    labels: list[LabelReport]
    dims: list[int]
    checks: dict[str, bool]
    sources: list[np.ndarray | int] = field(repr=False)
    lifted: list[Representation] = field(repr=False)
    numerators: np.ndarray = field(repr=False)

    @property
    def census_dims(self) -> list[int]:
        return sorted(self.dims)

    @functools.cached_property
    def stacks(self) -> dict[int, np.ndarray]:
        """Per irreducible dimension d, ascending: the images of its k
        irreducibles, the next k of the basis, as one (|G|, k, d, d) array.
        A split stack is copied in and `sources` then holds its view, so no
        irreducible is held twice; a lazy label is induced into its slot."""
        q, sub = self.q, self.q.tf_subgroup()
        stacks = {d: np.empty((q.order, k, d, d), dtype=complex)
                  for d, k in Counter(self.dims).items()}
        slots = [stack[:, j] for stack in stacks.values() for j in range(stack.shape[1])]
        for i, (slot, src) in enumerate(zip(slots, self.sources)):
            if isinstance(src, int):
                phases = wave_phases(self.numerators[src], q.N, sub.exponents)
                rho = self.lifted[self.labels[src].label.rho_index]
                src = induce(q, Representation(sub, phases[:, None, None] * rho.mats)).mats
            else:
                self.sources[i] = slot
            slot[...] = src
        return stacks

    @functools.cached_property
    def irreps(self) -> list[Representation]:
        """The quotient's irreducibles in basis order, views into `stacks`."""
        return [Representation(self.q, stack[:, j])
                for stack in self.stacks.values() for j in range(stack.shape[1])]

    @functools.cached_property
    def basis(self) -> str:
        """sha256 of the irreducibles' dims and generator images, rounded to
        FINGERPRINT_DECIMALS: the basis a Fourier table is computed in."""
        gens = self.q.generators
        digest = hashlib.sha256(np.array(self.dims, dtype=np.int64).tobytes())
        for r in self.irreps:  # adding 0.0 turns -0.0 into 0.0
            digest.update((np.round(r.mats[gens], FINGERPRINT_DECIMALS) + 0.0).tobytes())
        return digest.hexdigest()


class _Irreducibles:
    """The characters of the quotient's irreducibles, held without a (K, |G|) block.

    The first len(off) irreducibles are the representations induced from
    the labels `off`, those the Mackey test finds irreducible; their
    characters are those rows of `induced`, the labels' (L, |TF|) block of
    induced characters on the TF part, and vanish off it.  The others are
    the distinct constituents split from the other labels, whose full
    characters are the rows of `split`.
    """

    def __init__(self, sub, induced: np.ndarray, off: list[int], split: np.ndarray):
        self.sub, self.induced, self.split = sub, induced, split
        self.off = np.array(off, dtype=np.int64)
        self.split_tf = split[:, sub.elements]

    def pair(self, chars: np.ndarray) -> np.ndarray:
        """sum_t chars[r, t] conj(sigma_u(t)) over the TF part, for an (r, |TF|)
        block of characters and every irreducible sigma_u: an (r, K) array."""
        return np.concatenate([(chars @ self.induced.conj().T)[:, self.off],
                               chars @ self.split_tf.conj().T], axis=1)

    def gram(self, pairing: np.ndarray) -> np.ndarray:
        """The irreducibles' character Gram, given `pair(induced) / |G|`: an
        irreducible induced from a label pairs as its label's induced character."""
        n = self.sub.parent.order
        split = self.pair(self.split_tf) / n
        split[:, len(self.off):] = self.split @ self.split.conj().T / n
        return np.concatenate([pairing[self.off], split])

    def columns(self, rows: np.ndarray, ids: slice) -> np.ndarray:
        """The characters of irreducibles `rows` at the element ids of a slice."""
        loc = self.sub.local[ids]
        inside, induced = loc >= 0, rows < len(self.off)
        out = np.zeros((len(rows), len(loc)), dtype=complex)
        out[np.ix_(induced, inside)] = self.induced[self.off[rows[induced]]][:, loc[inside]]
        out[~induced] = self.split[rows[~induced] - len(self.off), ids]
        return out


def enumerate_dual(spec: GroupSpec, N: int, seed: int = 0) -> DualAtlas:
    """Label the dual of G mod T^N, report on each label, and audit the result.

    The quotient's irreducibles come from the labels themselves
    (Clifford-Mackey theory; Serre, *Linear Representations of Finite
    Groups*, sections 7-8), characters first.  A label's representation is
    induced from its twisted class tau = chi_k rho on the TF part.  The
    labels are taken a class rho at a time, as arrays: with k = a / N, the
    phases chi_k(t) = exp(2 pi i a.n(t) / N) of all the class's labels are
    one gather (`reps.wave_phases`), the twisted characters are
    formed in place in one (L, |TF|) block, and `induced_character` adds
    the cosets to it one at a time, without matrices; labels go in chunks
    of GATHER_BYTES.  The label's stabilizer order, len(p) of its class's
    little group over its orbit size (orbit-stabilizer), decides what is
    built, and `reps.mackey_irreducible` checks the whole class's orders
    against the induced norms.  An irreducible induced representation
    (order 1) gets no stack here: the atlas keeps each class lifted to q
    and each label's numerators, and `DualAtlas.stacks` induces it from
    those on first use.  The class's reducible labels are split now, in
    one call to `reps.split_induced`, straight from their phases and rho's
    (|TF|, d, d) stack, averaging over TF and the coset representatives by
    a block identity, so no (|G|, |P| d, |P| d) stack is built.  Their
    constituents have dimension at most |P| d_rho, and
    `reps.distinct_constituents` keeps one per character within each
    label; labels share no constituent.  The irreducibles are put in
    `reps.irreducible_order`, the basis Fourier tables use, and the atlas
    is kept on the quotient per seed.

    Each label's report holds its induced dimension, irreducibility (the
    stabilizer order is 1), character norm and decomposition into the
    quotient's irreducibles.  Every Gram runs over the TF part, where
    induced characters live; the irreducibles' own Gram must be the
    identity (`reps.check_irreducibles`, which also probes the split
    stacks).  Checks performed: pairwise inequivalence of the
    labels, irreducibility off the null set, exhaustion of the quotient dual
    by the decompositions (sum d^2 = |G mod T^N|), and coverage of every
    irreducible as a subrepresentation.  Coverage is computed from the
    twisted characters by Frobenius reciprocity, <Ind tau, sigma> =
    <tau, Res sigma>, and must reproduce every decomposition.
    """
    q = build_quotient(spec, N)
    if seed in q._atlases:
        return q._atlases[seed]
    q.mult_table()      # the split needs it; past the table cap nothing order-sized is built
    rs = rep_set(spec, seed=seed)
    sub, conj = q.tf_subgroup(), q.coset_conjugation
    orbits = [wave_orbits(spec, rs, rho_index, N) for rho_index in range(len(rs.classes))]
    labels = [label for class_labels in orbits for label in class_labels]
    # k = a / N: each label's integer numerators
    a = np.array([[x.numerator * (N // x.denominator) for x in label.k] for label in labels],
                 dtype=np.int64).reshape(len(labels), spec.d2)
    lifted = [lift_representation(rho, q) for rho in rs.classes]
    twisted = np.empty((len(labels), sub.order), dtype=complex)
    induced, norms = np.empty_like(twisted), np.empty(len(labels))
    irreducible = np.empty(len(labels), dtype=bool)
    chunk = max(1, GATHER_BYTES // (twisted.itemsize * sub.order))
    split_stacks, split_chars, start = [], [], 0
    for rho, class_labels, lg in zip(lifted, orbits, rs.little_groups):
        stop = start + len(class_labels)
        # twisted characters chi_k rho in place, then the induced ones coset by coset
        for lo in range(start, stop, chunk):
            part = slice(lo, min(lo + chunk, stop))
            wave_phases(a[part], N, sub.exponents, out=twisted[part])
            twisted[part] *= rho.char
            flat = induced_character(conj, twisted[part], out=induced[part]).view(float)
            norms[part] = np.einsum("lt,lt->l", flat, flat) / q.order
        stabilizers = len(lg.p) // np.array([label.orbit_size for label in class_labels])
        irreducible[start:stop] = mackey_irreducible(norms[start:stop], stabilizers)
        # the class's reducible labels, split together
        reducible = start + np.flatnonzero(~irreducible[start:stop])
        for pieces in split_induced(q, rho, wave_phases(a[reducible], N, sub.exponents), seed):
            stacks, chars = distinct_constituents(pieces)
            split_stacks += stacks
            split_chars.append(chars)
        start = stop
    lazy = np.flatnonzero(irreducible).tolist()
    induced_dims = [spec.rot_order * rs.classes[label.rho_index].dim for label in labels]
    irr = _Irreducibles(sub, induced, lazy,
                        np.concatenate([np.empty((0, q.order), dtype=complex), *split_chars]))
    pairing = irr.pair(induced) / q.order
    check_irreducibles(irr.gram(pairing), split_stacks, q.mult_table(),
                       np.random.default_rng(seed))
    dims = np.array([induced_dims[i] for i in lazy] + [m.shape[1] for m in split_stacks])
    order = irreducible_order(dims, irr.columns, q.order)
    decomposition = integral(pairing[:, order])
    del pairing                         # before the reciprocity Gram, the pass's peak
    reciprocity = integral(irr.pair(twisted)[:, order] / sub.order)
    parts: list[dict[int, int]] = [{} for _ in labels]
    at = np.nonzero(decomposition)
    for i, j, count in zip(*(x.tolist() for x in at), decomposition[at].tolist()):
        parts[i][j] = count
    reports = [LabelReport(*row) for row in zip(labels, induced_dims, irreducible.tolist(),
                                                 norms.tolist(), parts)]

    dims = dims[order]
    checks = {}
    # decompositions determine characters; distinct labels must differ
    checks["pairwise_inequivalent"] = (
        len({tuple(sorted(r.decomposition.items())) for r in reports}) == len(reports))
    checks["off_null_irreducible"] = all(r.irreducible for r in reports
                                         if not r.label.in_null_set)
    checks["exhaustion"] = bool((decomposition > 0).any(axis=0).all()
                                and (dims ** 2).sum() == q.order)
    checks["subrep_cover"] = bool((reciprocity > 0).any(axis=0).all()
                                  and (reciprocity == decomposition).all())
    checks["dimension_count"] = bool(
        (decomposition @ dims == [r.induced_dim for r in reports]).all())
    sources = [lazy[u] if u < len(lazy) else split_stacks[u - len(lazy)]
               for u in order.tolist()]
    q._atlases[seed] = DualAtlas(q, seed, rs, reports, dims.tolist(), checks, sources,
                                 lifted, a)
    return q._atlases[seed]
