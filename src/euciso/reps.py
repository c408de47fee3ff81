"""Unitary representations of the finite quotients.

A representation is one complex array of shape (|H|, d, d), holding the
matrices of its domain's elements in `domain.elements` order, plus its
character vector.  Pairings of characters, equivalence and multiplicities are
vector operations on those arrays; lifting and inducing each build the new
array with one gather.  The twisted action on the translation-kernel part's
dual is decided on characters (`QuotientGroup.coset_conjugation`,
`dual.rep_set`).  Induction reads the per-quotient coset data
`QuotientGroup.coset_rows`, and the split reads x*h_p's id from the id
layout (`QuotientGroup.coset_reps`).

The dual of a quotient comes from its wave labels (`dual.enumerate_dual`),
characters first and a class at a time.  A label (rho, k = a / N) twists
rho by the phases of k, and every such phase, for a block of labels, the
rep set's shifts or one `WaveCharacter`, is one gather from the roots of
unity (`wave_phases`).  `induced_character` gives a block of labels'
induced characters by the Frobenius formula, without matrices.
A label's stabilizer order, exact from its wave orbit, decides what happens
next; `mackey_irreducible` cross-checks a class's orders with those
characters' norms.  An irreducible induced representation is induced only
when the irreducibles are read.  The reducible labels of a class are split
together by `split_induced`, in batches of stacked products, straight from
their twisted classes tau on the TF part, through the block identity

    sum_g M(g) X M(g)^H = sum_{x in TF} M(x) Y M(x)^H,  Y = sum_p M(h_p) X M(h_p)^H,

for M = Ind tau, block-diagonal on TF and a block permutation at each coset
representative h_p, so no stack of Ind tau is built; `distinct_constituents`
keeps one stack per character within each label.  Those are the quotient's
irreducibles, in `irreducible_order`: the one basis `fourier` uses, held by
the atlas (`dual.DualAtlas`) that each Fourier table carries.

`irreps`, a random-commutant solver on the regular representation (Dixon,
Math. Comp. 24, 1970), has two uses: the rep-set candidates on the
translation-kernel part at m0, and the independent oracle that `verify` and
the tests compare the atlas with.  It refuses orders above SOLVER_CAP.  A
random Hermitian commutant element h[a, b] = c(a^-1 b) has invariant
eigenspaces, and for a generic draw each carries one irreducible.  A
cluster's character is a class sum, so a known one costs O(n d); only new
characters are gathered into an (n, d, d) stack.

Both paths make one random draw per attempt.  An eigenvalue collision joins
several irreducibles in one cluster, which then fails the IRREDUCIBLE_TOL
norm test (`_irreducible`); that attempt fails, and the next one reseeds
with seed + attempt, up to MAX_RESEEDS.  The irreducibles are ordered by
(dim, character).
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (CapExceeded, ConvergenceFailure, InternalInconsistency,
                     NotAMember)
from .groups import GroupSpec, QuotientGroup, SubgroupView, _outside

STRUCT_TOL = 1e-6         # character comparisons, multiplicities, character norms
IRREDUCIBLE_TOL = 1e-3    # |<chi, chi> - 1| below this marks a solver block irreducible
HOMOMORPHISM_TOL = 1e-8   # largest generator-pair residual of an induced rep or split constituent
IRREP_RESIDUAL_TOL = 1e-6  # largest unitary or homomorphism residual of a solved irrep
CLUSTER_GAP = 1e-8        # eigenvalues closer than this times their spread share a cluster
IDENTITY_TOL = 1e-8       # largest error of the Fourier identities verify and fourier check
FINGERPRINT_DECIMALS = 8  # generator images are rounded to this before the basis is hashed

MAX_RESEEDS = 8
GATHER_BYTES = 32 * 2**20  # the solver's basis gathers and the atlas's label phases, per step
SPLIT_BYTES = 8 * 2**20    # one batch of a class split, its constituents included
SOLVER_CAP = 1024          # largest order `irreps` solves; one solve at 1024 peaks near 120 MB
KEY_BLOCK = 64             # character entries `irreducible_order` reads per refinement step


class Representation:
    """Matrix-valued homomorphism on a quotient group or a subgroup view.

    `mats` is the (|H|, d, d) complex stack of the domain's matrices in
    `domain.elements` order and `char` its trace vector in the same order;
    `matrix(i)` looks up element id i of the parent quotient.
    """

    def __init__(self, domain, mats):
        self.domain = domain
        self.mats = np.asarray(mats, dtype=complex)
        self.dim = self.mats.shape[1]
        self.char = np.einsum("gii->g", self.mats)

    def rows(self, ids) -> np.ndarray:
        """Stack rows of parent element ids; KeyError for an id outside the domain."""
        ids, local = np.asarray(ids), self.domain.local
        rows = None if _outside(ids, len(local)) else local[ids]
        if rows is None or np.any(rows < 0):
            raise KeyError("element id outside the representation's domain")
        return rows

    def matrix(self, i: int) -> np.ndarray:
        return self.mats[self.rows(i)]


def char_inner(r1: Representation, r2: Representation) -> complex:
    """(1/|H|) sum chi1(g) conj(chi2(g)) over the common domain."""
    return complex(np.vdot(r2.char, r1.char)) / len(r1.char)


def char_norm_sq(r: Representation) -> float:
    return float(np.mean(np.abs(r.char) ** 2))


def equivalent(r1: Representation, r2: Representation) -> bool:
    """Unitary equivalence via character comparison (finite groups)."""
    return r1.dim == r2.dim and bool(np.abs(r1.char - r2.char).max() <= STRUCT_TOL)


def multiplicity(container: Representation, irr: Representation) -> int:
    """How often `irr` occurs in `container`, from the character pairing."""
    return int(multiplicities(container.char[None], irr.char[None])[0, 0])


def multiplicities(chars: np.ndarray, irr_chars: np.ndarray) -> np.ndarray:
    """How often each irreducible occurs in each representation.

    chars is an (r, |H|) stack of characters and irr_chars an (s, |H|)
    stack of irreducible characters on the same domain; the (r, s) integer
    result is their character Gram (1/|H|) chars @ irr_chars^H.
    """
    return integral(chars @ irr_chars.conj().T / chars.shape[1])


def integral(m: np.ndarray) -> np.ndarray:
    """A character Gram as the integer multiplicities it must hold;
    InternalInconsistency if an entry lies farther than STRUCT_TOL from one."""
    k = np.round(m.real)
    bad = np.abs(m - k) > STRUCT_TOL
    if bad.any():
        raise InternalInconsistency(f"non-integral multiplicity {m[bad][0]}")
    return k.astype(np.int64)


# -- irreducible decomposition ------------------------------------------------

def _perm_arrays(domain) -> tuple[np.ndarray, np.ndarray]:
    """Left-regular permutation table and inverse map in local indices; a quotient's are cached."""
    if isinstance(domain, QuotientGroup):
        return domain.mult_table(), domain._inverse
    ids = domain.elements
    table = domain.local[domain.parent.mult_table()[np.ix_(ids, ids)]]
    if (table < 0).any():
        raise InternalInconsistency("subgroup view is not closed under products")
    inv_local = (table == domain.local[domain.identity]).argmax(axis=1)
    return table, inv_local


def _cluster(w: np.ndarray) -> list[slice]:
    """The runs of ascending eigenvalues w whose gaps are at most CLUSTER_GAP
    times their spread max(w[-1] - w[0], 1)."""
    tol = CLUSTER_GAP * max(w[-1] - w[0], 1.0)
    breaks = [0, *(np.flatnonzero(np.diff(w) > tol) + 1).tolist(), len(w)]
    return [slice(a, b) for a, b in zip(breaks, breaks[1:])]


def _irreducible(mats: np.ndarray) -> bool:
    """True iff the trace of the unitary (n, d, d) stack mats has <chi, chi>
    within IRREDUCIBLE_TOL of 1."""
    return abs(float(np.mean(np.abs(np.einsum("gii->g", mats)) ** 2)) - 1.0) < IRREDUCIBLE_TOL


def distinct_constituents(stacks) -> tuple[list[np.ndarray], np.ndarray]:
    """One stack per character among irreducible (n, d, d) stacks, in their
    order, with the kept stacks' characters as one (s, n) block."""
    chars = np.array([np.einsum("gii->g", mats) for mats in stacks])
    first = multiplicities(chars, chars).argmax(axis=1)  # Gram of irreducibles: 1 iff equal
    keep = np.flatnonzero(first == np.arange(len(stacks)))
    return [stacks[k] for k in keep], chars[keep]


class _Characters:
    """Distinct characters, kept as the rows of one preallocated (k, n) block
    so that a lookup compares against all of them in one array operation."""

    def __init__(self, k: int, n: int):
        self._block = np.empty((k, n), dtype=complex)
        self._count = 0

    @property
    def rows(self) -> np.ndarray:
        return self._block[:self._count]

    def known(self, ch: np.ndarray) -> bool:
        """True iff some kept character is within STRUCT_TOL of ch everywhere."""
        return bool((np.abs(self.rows - ch).max(axis=1) < STRUCT_TOL).any())

    def add(self, ch: np.ndarray) -> None:
        if self._count == len(self._block):
            raise InternalInconsistency("more distinct characters than the block holds")
        self._block[self._count] = ch
        self._count += 1


def _ordered(domain, stacks, chars, table, rng) -> list[Representation]:
    """Irreducibles in `irreducible_order`, the order every irreducible index
    refers to, after `check_irreducibles`."""
    chars = np.asarray(chars)
    order = irreducible_order([m.shape[1] for m in stacks],
                              lambda rows, ids: chars[rows, ids], table.shape[0])
    stacks, chars = [stacks[k] for k in order], chars[order]
    check_irreducibles(chars @ chars.conj().T / table.shape[0], stacks, table, rng)
    return [Representation(domain, mats) for mats in stacks]


def irreducible_order(dims, columns, n: int) -> np.ndarray:
    """The order of irreducibles by (dim, character rounded to 6 decimals).

    Characters compare entry by entry in element order, real part before
    imaginary part, and full ties keep the given order: what one stable
    `np.lexsort` over all n entries, with the dim as its last, primary key,
    gives.  `columns(rows, ids)` returns the characters of the irreducibles
    `rows` at the element ids of a slice.  They are read KEY_BLOCK entries at
    a time and only for irreducibles that still tie with another on every
    entry read, so distinct characters never need all n entries.
    """
    order = np.argsort(dims, kind="stable")
    first = _run_starts(np.asarray(dims)[order][:, None])   # first position of each tie run
    for c in range(0, n, KEY_BLOCK):
        at = np.flatnonzero(np.bincount(first)[first] > 1)
        if not len(at):
            break
        keys = np.round(columns(order[at], slice(c, c + KEY_BLOCK)), 6).view(float)
        sub = np.lexsort([*keys.T[::-1], first[at]])
        order[at] = order[at][sub]
        first[at] = at[_run_starts(np.column_stack([first[at][sub], keys[sub]]))]
    return order


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """For rows of a sorted (m, c) key block, the row where each one's run of equal rows starts."""
    new = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
    return np.flatnonzero(new)[np.cumsum(new) - 1]


def irreps(domain, seed: int = 0) -> list[Representation]:
    """One representative per equivalence class of irreducibles.

    Decomposes the regular representation through the eigenspaces of a
    random Hermitian element of its commutant; verifies sum d^2 = |H|,
    pairwise character orthogonality and the homomorphism property before
    returning.  Attempt a draws once, from default_rng(seed + a); an
    eigenvalue cluster that fails the IRREDUCIBLE_TOL norm test, or a failed
    check, ends the attempt, up to MAX_RESEEDS.  An order above SOLVER_CAP
    is refused with CapExceeded before anything is allocated.
    """
    n = len(domain.elements)
    if n > SOLVER_CAP:
        raise CapExceeded(f"group order {n} exceeds the solver cap {SOLVER_CAP}")
    table, inv_local = _perm_arrays(domain)

    last_error = None
    for attempt in range(MAX_RESEEDS):
        rng = np.random.default_rng(seed + attempt)
        try:
            return _solve(domain, table, inv_local, rng)
        except (ConvergenceFailure, InternalInconsistency) as exc:
            last_error = exc
    raise ConvergenceFailure(f"irrep solver failed after {MAX_RESEEDS} reseeds: {last_error}")


def _solve(domain, table, inv_local, rng) -> list[Representation]:
    n = table.shape[0]
    inv_perms = table[inv_local]            # row g: h -> g^-1 h
    identity = domain.local[domain.identity]

    # h[a, b] = c(a^-1 b) with c(g^-1) = conj c(g): Hermitian, and it commutes
    # with the left-regular action, so its eigenspaces are invariant
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w, v = np.linalg.eigh((c + c[inv_local].conj()).take(inv_perms))

    # the projection P onto an invariant subspace has P[a, b] = e(a^-1 b) for
    # its identity row e, so chi(g) = sum_a e(a^-1 g a) = n * (mean of e over
    # the class of g); classes are labelled by their smallest element id
    cls = table[inv_local[None, :], table].min(axis=1)
    class_size = np.bincount(cls, minlength=n)[cls]

    kept_mats: list[np.ndarray] = []        # (n, d, d) stacks
    kept_chars = _Characters(np.count_nonzero(cls == np.arange(n)), n)   # one per class
    for sl in _cluster(w):
        basis = v[:, sl]
        e = basis[identity] @ basis.conj().T
        class_sum = (np.bincount(cls, e.real, minlength=n)
                     + 1j * np.bincount(cls, e.imag, minlength=n))
        if kept_chars.known(n * class_sum[cls] / class_size):
            continue
        # one row g of the gather of basis by inv_perms is the size of basis;
        # `take` moves the same bytes as fancy indexing, several times faster
        rows, adjoint = max(1, GATHER_BYTES // basis.nbytes), basis.conj().T
        stack = np.concatenate([adjoint @ basis.take(inv_perms[r:r + rows], axis=0)
                                for r in range(0, n, rows)])
        # an eigenvalue collision joins several irreducibles: the draw was bad
        if not _irreducible(stack):
            raise ConvergenceFailure("an eigenvalue cluster is reducible")
        kept_mats.append(stack)
        kept_chars.add(np.einsum("gii->g", stack))

    if sum(m.shape[1] ** 2 for m in kept_mats) != n:
        raise InternalInconsistency("sum of squared dimensions misses the group order")
    return _ordered(domain, kept_mats, kept_chars.rows, table, rng)


def check_irreducibles(gram: np.ndarray, stacks, table: np.ndarray, rng) -> None:
    """Raise InternalInconsistency unless `gram`, the character Gram of a set
    of irreducibles, is the identity, and each (n, d, d) stack in `stacks`
    is unitary at every element and a homomorphism at 8 pairs drawn from
    rng.  The unitarity rule reads the stack's dimension
    (`_unitary_defect`): a stack with d <= 2 is checked elementwise, a
    larger one by one batched matmul."""
    n = table.shape[0]
    if np.abs(gram - np.eye(len(gram))).max() > STRUCT_TOL:
        raise InternalInconsistency("character orthogonality failed")
    for mats in stacks:
        if _unitary_defect(mats) > IRREP_RESIDUAL_TOL:
            raise InternalInconsistency("a returned block is not unitary")
        a, b = rng.integers(n, size=(2, 8))
        if np.abs(mats[a] @ mats[b] - mats[table[a, b]]).max() > IRREP_RESIDUAL_TOL:
            raise InternalInconsistency("a returned block is not a homomorphism")


def _unitary_defect(mats: np.ndarray) -> float:
    """max |M^H M - I| over every element of an (n, d, d) stack.

    For d <= 2 the Gram entries are formed elementwise on the (d, d, n)
    transpose, element axis innermost: a few length-n vector operations
    instead of one small matrix product per element.  Larger stacks keep
    the batched matmul: the elementwise (d, d, d, n) product grows as d^3 n,
    and by d = 8 it is slower than the matmul."""
    d = mats.shape[1]
    if d > 2:
        return float(np.abs(mats.conj().swapaxes(1, 2) @ mats - np.eye(d)).max())
    e = np.ascontiguousarray(mats.transpose(1, 2, 0))                  # [row, col, element]
    gram = (e.conj()[:, :, None] * e[:, None]).sum(axis=0)            # [col, col', element]
    return float(np.abs(gram - np.eye(d)[:, :, None]).max())


def quotient_irreps(q: QuotientGroup, seed: int = 0) -> list[Representation]:
    """`DualAtlas.irreps` of q at this seed, for callers that hold a
    quotient rather than an atlas (the tests and the benchmark's set-up)."""
    from .dual import enumerate_dual    # dual builds its atlas on this module
    return enumerate_dual(q.spec, q.N, seed).irreps


# -- wave characters ----------------------------------------------------------

@functools.lru_cache(maxsize=64)
def roots_of_unity(den: int) -> np.ndarray:
    """exp(2 pi i j / den) for j in [0, den), as `WaveCharacter.value` computes
    each: the table every phase of a wave vector over den is read from.
    Built once per den and read-only; callers gather from it."""
    table = np.array([cmath.exp(2j * cmath.pi * (j / den)) for j in range(den)])
    table.flags.writeable = False
    return table


def wave_phases(a, den: int, exponents: np.ndarray, out=None) -> np.ndarray:
    """The phases exp(2 pi i a.n / den) of the wave vector k = a / den at the
    exponent rows n of `exponents`, read from `roots_of_unity(den)`: one row
    for one integer numerator vector a, or an (L, |rows|) block for an
    (L, d2) stack of them, into `out` if given.  The one phase gather: j / den
    and (j c) / (den c) are the same correctly rounded double, so a wave
    vector's phases do not depend on the denominator it is written over."""
    return np.take(roots_of_unity(den), (a @ exponents.T) % den, out=out)


@dataclass(frozen=True)
class WaveCharacter:
    """One-dimensional character of the translation-kernel subgroup.

    Evaluates as exp(2 pi i <k, n>) on the section exponent n; kernel
    elements map to 1.  k is held in dual-lattice coordinates.
    """

    k: tuple[Fraction, ...]

    def value(self, n) -> complex:
        phase = sum(a * Fraction(b) for a, b in zip(self.k, n))
        return cmath.exp(2j * cmath.pi * float(phase % 1))

    def phases(self, domain) -> np.ndarray:
        """The character at every element of a quotient or subgroup view, in
        element order, as `value` computes it.

        With k = a / den, the phase at exponent vector n is j / den for
        j = n.a mod den (`wave_phases`).  The exponents are decoded once per
        domain (`exponents`).
        """
        den = math.lcm(*(x.denominator for x in self.k))
        a = np.array([int(x * den) for x in self.k], dtype=np.int64)
        return wave_phases(a, den, domain.exponents)

    def on(self, q: QuotientGroup) -> Representation:
        """The character as a 1-dim representation of the TF part of q."""
        if any((a * q.N).denominator != 1 for a in self.k):
            raise NotAMember(f"wave vector {self.k} does not kill T^{q.N}")
        sub = q.tf_subgroup()
        return Representation(sub, self.phases(sub)[:, None, None])


def chi(spec: GroupSpec, k) -> WaveCharacter:
    return WaveCharacter(tuple(Fraction(x) for x in k))


def scale_by_character(wave: WaveCharacter, r: Representation) -> Representation:
    """Pointwise product chi_k * rho on the same domain."""
    return Representation(r.domain, wave.phases(r.domain)[:, None, None] * r.mats)


# -- the action of G on duals of TF -------------------------------------------

def _check_tf(q: QuotientGroup, r: Representation) -> None:
    if r.domain is not q.tf_subgroup():
        raise InternalInconsistency("induction expects a representation on the TF view of q")


def _check_homomorphism(q: QuotientGroup, mats: np.ndarray, what: str) -> None:
    """InternalInconsistency unless the (|G|, d, d) stack mats multiplies
    as the table on all pairs of quotient generators.

    All G^2 products come from one (G d, d) @ (d, G d) GEMM of the
    generators' images, row blocks against column blocks, read as
    [a, i, b, j] and compared with the table's images in that layout."""
    gens = q.generators
    g, d = len(gens), mats.shape[1]
    at = mats[gens]
    products = (at.reshape(g * d, d) @ at.swapaxes(0, 1).reshape(d, g * d)).reshape(g, d, g, d)
    want = mats[q.mult_table()[gens[:, None], gens[None, :]]].swapaxes(1, 2)   # [a, i, b, j]
    defect = float(np.abs(products - want).max())
    if defect > HOMOMORPHISM_TOL:
        raise InternalInconsistency(f"{what} fails homomorphism: {defect}")


def induce(q: QuotientGroup, r: Representation) -> Representation:
    """Induction from the TF part to the full quotient, in block form.

    Coset representatives are the p_reps; block (i, j) of the induced
    matrix at g is rho(h_i^-1 g h_j) when that element lies in TF and
    zero otherwise.  The result is checked to be a homomorphism on all
    pairs of quotient generators.
    """
    _check_tf(q, r)
    k, d = q.spec.rot_order, r.dim
    mats = _blocks(r.mats, q.coset_rows).reshape(q.order, k * d, k * d)
    _check_homomorphism(q, mats, "induced rep")
    return Representation(q, mats)


def _blocks(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (..., k, d, k, d) blocks mats[..., rows[..., i, j], :, :] of
    induced matrices, for one (|TF|, d, d) stack or a stack of them, zero
    where a row is -1 (`QuotientGroup.coset_rows`)."""
    padded = np.concatenate([mats, np.zeros_like(mats[..., :1, :, :])], axis=-3)
    return np.take(padded, rows, axis=-3).swapaxes(-3, -2)


def split_induced(q: QuotientGroup, rho: Representation, phases: np.ndarray,
                  seed: int = 0) -> Iterator[list[np.ndarray]]:
    """The irreducible constituents of Ind tau_l from the TF part, for the
    twisted classes tau_l = chi_l rho of the rows of an (L, |TF|) stack of
    wave phases, with multiplicity, as one list of (|G|, m, m) stacks per
    row.  No stack of an induced representation is built.

    With the p_reps h_i as coset representatives, Ind tau = M is
    block-monomial (Serre, *Linear Representations of Finite Groups*, 7.1):
    at x in TF it is block-diagonal with blocks S_i(x) = tau(h_i^-1 x h_i),
    the stack tau.mats[q.coset_conjugation[i]], and at h_p it is a block
    permutation whose block (i, j) is tau(h_i^-1 h_p h_j) where that lies
    in TF (`QuotientGroup.coset_rows`).  Every element is x h_p, so |G|
    times the average h of a random Hermitian X over the quotient is

        sum_g M(g) X M(g)^H = sum_x M(x) Y M(x)^H,  Y = sum_p M(h_p) X M(h_p)^H,

    blockwise h_ij = sum_x S_i(x) Y_ij S_j(x)^H: |P|^2 times fewer flops
    than the sum over G.  An eigenspace basis B of h gives the constituent
    sigma(x h_p) = (B^H M(x)) (M(h_p) B) at the id of x h_p, which is x's
    TF row times |P| plus p (`QuotientGroup.coset_reps`): all (x, p) come
    from one GEMM, already in id order.

    The rows are split in batches, each held under SPLIT_BYTES with its
    constituents: Y, h, the eigendecompositions and the left factors
    B^H M(x) are each one stacked product over a batch, and only the
    clusters are cut per row.  Attempt a draws one X from
    default_rng(seed + a) for all of a batch's rows, so a row splits as it
    would alone.  A row whose eigenvalues form one cluster, or that has a
    cluster failing the IRREDUCIBLE_TOL norm test after an eigenvalue
    collision, fails its attempt; a batch's failed rows are retried
    together at the next one, up to MAX_RESEEDS.  Each constituent
    is checked to be a homomorphism on all pairs of quotient generators,
    with one product per stack (`_check_homomorphism`).  Every Ind tau_l
    must be reducible, that is tau_l's stabilizer order must exceed 1
    (`mackey_irreducible`); an irreducible one never splits and ends in
    ConvergenceFailure.  The rows' lists are yielded in row order, a batch
    at a time, so a caller that keeps fewer stacks holds at most one batch
    more.
    """
    _check_tf(q, rho)
    k, d = q.spec.rot_order, rho.dim
    # per row: its constituents, at most (|P| d)^2 |G| entries, as many again
    # while one is copied into id order, and under 4 |P| d^2 |G| entries of
    # (|P|, |TF| d, |P| d) products, their transposed copy and left factors
    per_batch = max(1, SPLIT_BYTES // (2 * (k + 2) * k * d * d * q.order * 16))
    for start in range(0, len(phases), per_batch):
        taus = phases[start:start + per_batch, :, None, None] * rho.mats      # tau_l stacks
        diag = taus[:, q.coset_conjugation]                                  # S_i(x)
        at_reps = _blocks(taus, q.coset_rows[q.coset_reps]).reshape(-1, k, k * d, k * d)
        out, pending = [None] * len(taus), list(range(len(taus)))
        for attempt in range(MAX_RESEEDS):
            at = slice(None) if attempt == 0 else pending
            rng = np.random.default_rng(seed + attempt)
            for row, result in zip(pending, _split_blocks(diag[at], at_reps[at], rng)):
                out[row] = result
            pending = [row for row in pending if isinstance(out[row], ConvergenceFailure)]
            if not pending:
                break
        else:
            raise ConvergenceFailure(f"split failed after {MAX_RESEEDS} reseeds: {out[pending[0]]}")
        for pieces in out:
            for mats in pieces:
                _check_homomorphism(q, mats, "split constituent")
        yield from out


def _split_blocks(diag: np.ndarray, at_reps: np.ndarray, rng) -> list:
    """`split_induced` on one batch, from the (B, |P|, |TF|, d, d) blocks
    S_i(x) and the (B, |P|, D, D) coset images M(h_p), with one Hermitian X
    drawn from rng for every row: per row, the list of its constituents, or
    the ConvergenceFailure that ends its attempt, when its eigenvalues form
    one cluster or a cluster fails the IRREDUCIBLE_TOL norm test
    (`_irreducible`).  A cluster's (|TF| m, |P| m) product block is copied
    once into (x, p) order, which is id order, so it is the (|G|, m, m)
    stack as it stands."""
    k, t, d = diag.shape[1:4]
    size, n = k * d, k * t
    x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    x = x + x.conj().T
    y = (at_reps @ x @ at_reps.conj().swapaxes(2, 3)).sum(1)
    # h_ij = sum_x S_i(x) Y_ij S_j(x)^H: first S_i(x) Y_ij for every i, then
    # one product over the (x, b) pairs for every j
    stacked = diag.reshape(-1, k, t * d, d)                                   # S_i(x) over x
    adjoints = diag.conj().transpose(0, 1, 2, 4, 3).reshape(-1, k, t * d, d)  # S_j(x)^H
    u = (stacked @ y.reshape(-1, k, d, size)).reshape(-1, k, t, d, k, d)      # [i, x, a, j, b]
    h = u.transpose(0, 4, 1, 3, 2, 5).reshape(-1, k, size, t * d) @ adjoints  # [j, (i, a), c]
    del u, adjoints                     # before the left factors, as large as u
    w, v = np.linalg.eigh(h.transpose(0, 2, 1, 3).reshape(-1, size, size) / n)
    # V^H M(x) for every x: V_i^H S_i(x) for every i, as one (k, size, t d) block
    rows = diag.transpose(0, 1, 3, 2, 4).reshape(-1, k, d, t * d)             # [i, b, (x, e)]
    left = v.conj().swapaxes(1, 2).reshape(-1, size, k, d).swapaxes(1, 2) @ rows
    fail, out = ConvergenceFailure("irreducible split did not terminate"), []
    for j, eigenvalues in enumerate(w):
        blocks, pieces = _cluster(eigenvalues), []
        if len(blocks) == 1:            # X split nothing
            out.append(fail)
            continue
        for block in blocks:
            # sigma(x h_p): rows (x, a) of B^H M(x) times columns (p, b) of M(h_p) B
            basis = v[j][:, block]
            m = basis.shape[1]
            lhs = left[j][:, block].reshape(k, m, t, d).transpose(2, 1, 0, 3)
            rhs = (at_reps[j] @ basis).transpose(1, 0, 2).reshape(size, k * m)
            xp = (lhs.reshape(t * m, size) @ rhs).reshape(t, m, k, m).swapaxes(1, 2)
            pieces.append(xp.reshape(n, m, m))                      # one copy, in id order
        out.append(pieces if all(map(_irreducible, pieces)) else fail)
    return out


def induced_character(conj: np.ndarray, chars: np.ndarray, out=None) -> np.ndarray:
    """The character of the representation induced from the TF part, on the
    TF part's elements (it vanishes off them), by the Frobenius formula: the
    sum over cosets p of char[conj[p]], for char a character on
    `q.tf_subgroup()` and conj = `q.coset_conjugation`.  chars may be one
    character or an (r, |TF|) stack of them; the cosets are added one at a
    time in p order, so no (r, |P|, |TF|) gather is built, into `out` if
    given."""
    out = np.take(chars, conj[0], axis=-1, out=out)
    for rows in conj[1:]:
        out += np.take(chars, rows, axis=-1)
    return out


def mackey_irreducible(norm, stabilizer):
    """Irreducibility of a representation induced from tau on the TF part,
    elementwise for arrays of norms and stabilizer orders.

    stabilizer is the number of cosets g_p with g_p . tau ~ tau, read exactly
    from tau's wave orbit (`dual.enumerate_dual`), and norm is <Ind tau,
    Ind tau> measured on the induced character.  Mackey's formula (Serre,
    *Linear Representations of Finite Groups*, 7.3-7.4) makes them equal:
    InternalInconsistency unless they agree within STRUCT_TOL.  The verdict
    is stabilizer == 1.
    """
    bad = np.flatnonzero(np.abs(np.subtract(norm, stabilizer)) > STRUCT_TOL)
    if len(bad):
        i = bad[0]
        raise InternalInconsistency(
            f"induced character norm {np.ravel(norm)[i]} differs from the stabilizer order "
            f"{np.ravel(stabilizer)[i]}")
    return np.equal(stabilizer, 1)


# -- lifting along quotient maps ----------------------------------------------

def lift_representation(r: Representation, fine: QuotientGroup) -> Representation:
    """Pull a representation of a coarse quotient back to a finer one."""
    on_tf = isinstance(r.domain, SubgroupView)
    coarse, domain = (r.domain.parent, fine.tf_subgroup()) if on_tf else (r.domain, fine)
    coarse_ids = fine.projection(coarse)[domain.elements]
    return Representation(domain, r.mats[r.rows(coarse_ids)])

