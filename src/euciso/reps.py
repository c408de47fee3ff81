"""Unitary representations of the finite quotients.

A representation is one complex array of shape (|H|, d, d), holding the
matrices of its domain's elements in `domain.elements` order, plus its
character vector.  Pairings of characters, equivalence and multiplicities are
vector operations on those arrays; twisting, conjugating, lifting and
inducing each build the new array with one gather.

Irreducible representations come out of a random-commutant solver on the
regular representation: a random Hermitian matrix averaged over the group
lies in the commutant, its eigenspaces are invariant, and for a generic
choice each eigenspace carries a single irreducible.  Degenerate draws are
detected by the character norm and split recursively.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (CapExceeded, ConvergenceFailure, InternalInconsistency,
                     NotAMember)
from .groups import DEFAULT_CAP, GroupSpec, NormalForm, QuotientGroup, SubgroupView

STRUCT_TOL = 1e-6         # character comparisons, multiplicities, character norms
IRREDUCIBLE_TOL = 1e-3    # |<chi, chi> - 1| below this marks a solver block irreducible
HOMOMORPHISM_TOL = 1e-8   # largest generator-pair residual an induced rep may have
IRREP_RESIDUAL_TOL = 1e-6  # largest unitary or homomorphism residual of a solved irrep
CLUSTER_GAP = 1e-8        # eigenvalues closer than this times their spread share a cluster
INTERTWINER_TOL = 1e-8    # averaged intertwiners and singular values below this count as 0
IDENTITY_TOL = 1e-8       # largest error of the Fourier identities verify and fourier check

MAX_RESEEDS = 8


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
        rows = self.domain.local[ids]
        if np.any(rows < 0):
            raise KeyError("element id outside the representation's domain")
        return rows

    def matrix(self, i: int) -> np.ndarray:
        return self.mats[self.rows(i)]


def char_inner(r1: Representation, r2: Representation) -> complex:
    """(1/|H|) sum chi1(g) conj(chi2(g)) over the common domain."""
    return complex(np.vdot(r2.char, r1.char)) / len(r1.char)


def char_norm_sq(r: Representation) -> float:
    return float(np.mean(np.abs(r.char) ** 2))


def equivalent(r1: Representation, r2: Representation, tol: float = STRUCT_TOL) -> bool:
    """Unitary equivalence via character comparison (finite groups)."""
    return r1.dim == r2.dim and bool(np.abs(r1.char - r2.char).max() <= tol)


def multiplicity(container: Representation, irr: Representation,
                 tol: float = STRUCT_TOL) -> int:
    """How often `irr` occurs in `container`, from the character pairing."""
    m = char_inner(container, irr)
    k = round(m.real)
    if abs(m - k) > tol:
        raise InternalInconsistency(f"non-integral multiplicity {m}")
    return k


# -- irreducible decomposition ------------------------------------------------

def _perm_arrays(domain) -> tuple[np.ndarray, np.ndarray]:
    """Left-regular permutation table and inverse map, in local indices."""
    ids = list(domain.elements)
    table = domain.local[_parent(domain).mult_table()[np.ix_(ids, ids)]]
    if (table < 0).any():
        raise InternalInconsistency("subgroup view is not closed under products")
    inv_local = (table == domain.local[domain.identity]).argmax(axis=1)
    return table, inv_local


def _cluster(eigenvalues: np.ndarray, tol: float) -> list[slice]:
    breaks = [0]
    for k in range(1, len(eigenvalues)):
        if eigenvalues[k] - eigenvalues[k - 1] > tol:
            breaks.append(k)
    breaks.append(len(eigenvalues))
    return [slice(a, b) for a, b in zip(breaks, breaks[1:])]


def _split_dense(mats: list[np.ndarray], rng, depth: int = 0) -> list[list[np.ndarray]]:
    """Recursively split a dense unitary rep into irreducible blocks."""
    d = mats[0].shape[0]
    n = len(mats)
    norm_sq = sum(abs(np.trace(m)) ** 2 for m in mats) / n
    if abs(norm_sq - 1.0) < IRREDUCIBLE_TOL:
        return [mats]
    if depth > 8:
        raise ConvergenceFailure("irreducible split did not terminate")
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = x + x.conj().T
    h = sum(m @ x @ m.conj().T for m in mats) / n
    w, v = np.linalg.eigh(h)
    spread = max(w[-1] - w[0], 1.0)
    out = []
    for block in _cluster(w, CLUSTER_GAP * spread):
        basis = v[:, block]
        sub = [basis.conj().T @ m @ basis for m in mats]
        if sub[0].shape[0] == d:
            # eigenspace did not split; try a fresh random direction
            return _split_dense(mats, rng, depth + 1)
        out.extend(_split_dense(sub, rng, depth + 1))
    return out


def _orthonormalize(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Symmetric orthogonalization nudge applied per matrix."""
    out = []
    for m in mats:
        g = m.conj().T @ m
        w, v = np.linalg.eigh(g)
        fix = v @ np.diag(w ** -0.5) @ v.conj().T
        out.append(m @ fix)
    return out


def irreps(domain, seed: int = 0, cap: int = DEFAULT_CAP,
           retries: int = MAX_RESEEDS) -> list[Representation]:
    """One representative per equivalence class of irreducibles.

    Decomposes the regular representation through eigenspaces of an
    averaged random Hermitian matrix; verifies sum d^2 = |H|, pairwise
    character orthogonality and the homomorphism property before
    returning.  Reseeds on bad random draws.
    """
    n = len(domain.elements)
    if n > cap:
        raise CapExceeded(f"group order {n} exceeds the solver cap {cap}")
    table, inv_local = _perm_arrays(domain)

    last_error = None
    for attempt in range(retries):
        rng = np.random.default_rng(seed + attempt)
        try:
            return _solve(domain, table, inv_local, rng)
        except (ConvergenceFailure, InternalInconsistency) as exc:
            last_error = exc
    raise ConvergenceFailure(f"irrep solver failed after {retries} reseeds: {last_error}")


def _solve(domain, table, inv_local, rng) -> list[Representation]:
    n = table.shape[0]
    inv_perms = table[inv_local]            # row g: h -> g^-1 h

    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = x + x.conj().T
    h = np.zeros((n, n), dtype=complex)
    for g in range(n):
        pi = inv_perms[g]
        h += x[np.ix_(pi, pi)]
    h /= n
    w, v = np.linalg.eigh(h)
    spread = max(w[-1] - w[0], 1.0)

    kept_mats: list[np.ndarray] = []        # (n, d, d) stacks
    kept_chars: list[np.ndarray] = []

    def consider(mats: np.ndarray, ch: np.ndarray) -> None:
        for kc in kept_chars:
            if np.abs(ch - kc).max() < STRUCT_TOL:
                return
        kept_mats.append(mats)
        kept_chars.append(ch)

    for sl in _cluster(w, CLUSTER_GAP * spread):
        basis = v[:, sl]
        gathered = basis[inv_perms]                         # (n, n, d)
        ch = np.einsum("ak,gak->g", basis.conj(), gathered)
        if abs(float(np.mean(np.abs(ch) ** 2)) - 1.0) < IRREDUCIBLE_TOL:
            if any(np.abs(ch - kc).max() < STRUCT_TOL for kc in kept_chars):
                continue
            mats = np.einsum("aj,gak->gjk", basis.conj(), gathered)
            consider(mats, ch)
        else:
            # eigenvalue collision joined several irreducibles; split densely
            mats = np.einsum("aj,gak->gjk", basis.conj(), gathered)
            for sub in _split_dense(list(mats), rng):
                stack = np.array(_orthonormalize(sub))
                consider(stack, np.einsum("gii->g", stack))

    if sum(m.shape[1] ** 2 for m in kept_mats) != n:
        raise InternalInconsistency("sum of squared dimensions misses the group order")

    order = sorted(range(len(kept_mats)),
                   key=lambda k: (kept_mats[k].shape[1],
                                  tuple(np.round(kept_chars[k], 6).view(float))))
    stacks = [kept_mats[k] for k in order]
    _verify_irreps(stacks, [kept_chars[k] for k in order], table, rng)
    return [Representation(domain, mats) for mats in stacks]


def _verify_irreps(stacks, chars, table, rng) -> None:
    n = table.shape[0]
    cmat = np.array(chars)
    gram = cmat @ cmat.conj().T / n
    if np.abs(gram - np.eye(len(stacks))).max() > STRUCT_TOL:
        raise InternalInconsistency("character orthogonality failed")
    for mats in stacks:
        d = mats.shape[1]
        defect = np.abs(np.einsum("gji,gjk->gik", mats.conj(), mats)
                        - np.eye(d)).max()
        if defect > IRREP_RESIDUAL_TOL:
            raise InternalInconsistency("a returned block is not unitary")
        for _ in range(8):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            if np.abs(mats[a] @ mats[b] - mats[table[a, b]]).max() > IRREP_RESIDUAL_TOL:
                raise InternalInconsistency("a returned block is not a homomorphism")


def quotient_irreps(q: QuotientGroup, seed: int = 0, cap: int = DEFAULT_CAP):
    """Cached irreps of the full quotient at a fixed seed."""
    cached = q._irreps_cache.get(seed)
    if cached is None:
        cached = irreps(q, seed=seed, cap=cap)
        q._irreps_cache[seed] = cached
    return cached


# -- wave characters ----------------------------------------------------------

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

    def kills_power(self, N: int) -> bool:
        """True iff the character is trivial on N-th section powers."""
        return all((a * N).denominator == 1 for a in self.k)

    def phases(self, q: QuotientGroup, ids) -> np.ndarray:
        """The character at element ids of q, as `value` computes it.

        With k = a / den, the phase at exponent vector n is j / den for
        j = n.a mod den; exp is evaluated once per distinct j.
        """
        den = math.lcm(*(x.denominator for x in self.k))
        a = np.array([int(x * den) for x in self.k], dtype=np.int64)
        n = np.array([q.nf(i).n for i in ids], dtype=np.int64)
        j, at = np.unique((n @ a) % den, return_inverse=True)
        return np.array([cmath.exp(2j * cmath.pi * (x / den)) for x in j.tolist()])[at]

    def on(self, q: QuotientGroup) -> Representation:
        """The character as a 1-dim representation of the TF part of q."""
        if not self.kills_power(q.N):
            raise NotAMember(f"wave vector {self.k} does not kill T^{q.N}")
        sub = q.tf_subgroup()
        return Representation(sub, self.phases(q, sub.elements)[:, None, None])


def chi(spec: GroupSpec, k) -> WaveCharacter:
    return WaveCharacter(tuple(Fraction(x) for x in k))


def _parent(domain) -> QuotientGroup:
    return domain.parent if isinstance(domain, SubgroupView) else domain


def scale_by_character(wave: WaveCharacter, r: Representation) -> Representation:
    """Pointwise product chi_k * rho on the same domain."""
    phases = wave.phases(_parent(r.domain), r.domain.elements)
    return Representation(r.domain, phases[:, None, None] * r.mats)


# -- the action of G on duals of TF -------------------------------------------

def dual_action(q: QuotientGroup, g: int, r: Representation) -> Representation:
    """(g . rho)(h) = rho(g^-1 h g) for rho on a normal subgroup view."""
    sub = r.domain
    table = q.mult_table()
    rows = sub.local[table[table[q.inv(g), list(sub.elements)], g]]
    if (rows < 0).any():
        raise InternalInconsistency("conjugation left the subgroup")
    return Representation(sub, r.mats[rows])


def p_rep_element(q: QuotientGroup, p_idx: int) -> int:
    return q.index[NormalForm((0,) * q.spec.d2, q.spec.f_identity, p_idx)]


def induce(q: QuotientGroup, r: Representation) -> Representation:
    """Induction from the TF part to the full quotient, in block form.

    Coset representatives are the p_reps; block (i, j) of the induced
    matrix at g is rho(h_i^-1 g h_j) when that element lies in TF and
    zero otherwise.  The result is checked to be a homomorphism on all
    pairs of quotient generators.
    """
    sub = r.domain
    if not isinstance(sub, SubgroupView) or sub.parent is not q:
        raise InternalInconsistency("induce expects a representation on a TF view of q")
    table = q.mult_table()
    cosets = [p_rep_element(q, p) for p in range(q.spec.rot_order)]
    coset_inv = [q.inv(c) for c in cosets]
    d, k, n = r.dim, len(cosets), q.order
    # rows[i, g, j] is the TF row of h_i^-1 g h_j, or -1 outside TF
    rows = sub.local[table[table[coset_inv]][:, :, cosets]]
    inside = rows >= 0
    blocks = np.zeros((k, n, k, d, d), dtype=complex)
    blocks[inside] = r.mats[rows[inside]]
    mats = blocks.transpose(1, 0, 3, 2, 4).reshape(n, k * d, k * d)

    gens = np.array(_quotient_generators(q))
    a, b = gens[:, None], gens[None, :]
    defect = float(np.abs(mats[a] @ mats[b] - mats[table[a, b]]).max())
    if defect > HOMOMORPHISM_TOL:
        raise InternalInconsistency(f"induced rep fails homomorphism: {defect}")
    return Representation(q, mats)


def _quotient_generators(q: QuotientGroup) -> list[int]:
    spec = q.spec
    out = []
    for i in range(spec.d2):
        e = [0] * spec.d2
        e[i] = 1 % q.N
        out.append(q.index[NormalForm(tuple(e), spec.f_identity, spec.p_identity)])
    for f in range(spec.f_order):
        out.append(q.index[NormalForm((0,) * spec.d2, f, spec.p_identity)])
    for p in range(spec.rot_order):
        out.append(q.index[NormalForm((0,) * spec.d2, spec.f_identity, p)])
    return out


def mackey_irreducible(q: QuotientGroup, r: Representation,
                       induced: Representation) -> bool:
    """Irreducibility test for the induced representation of r.

    True iff no nontrivial coset moves r to an equivalent representation;
    cross-checked against the character norm of `induced`, which must be
    induce(q, r).
    """
    verdict = True
    for p_idx in range(q.spec.rot_order):
        if p_idx == q.spec.p_identity:
            continue
        g = p_rep_element(q, p_idx)
        if equivalent(dual_action(q, g, r), r):
            verdict = False
            break
    norm = char_norm_sq(induced)
    if abs(norm - 1.0) < STRUCT_TOL:
        by_norm = True
    elif norm > 1.0 + STRUCT_TOL:
        by_norm = False
    else:
        raise InternalInconsistency(f"induced character norm {norm} below 1")
    if by_norm != verdict:
        raise InternalInconsistency(
            f"stabilizer test ({verdict}) disagrees with character norm ({norm})")
    return verdict


# -- lifting along quotient maps ----------------------------------------------

def lift_representation(r: Representation, fine: QuotientGroup) -> Representation:
    """Pull a representation of a coarse quotient back to a finer one."""
    coarse = _parent(r.domain)
    domain = fine.tf_subgroup() if isinstance(r.domain, SubgroupView) else fine
    coarse_ids = fine.projection(coarse)[list(domain.elements)]
    return Representation(domain, r.mats[r.rows(coarse_ids)])


def trivial_on(r: Representation, ids) -> bool:
    mats = r.mats[r.rows(list(ids))]
    return bool((np.abs(mats - np.eye(r.dim)) < STRUCT_TOL).all())


def intertwiner(r1: Representation, r2: Representation, seed: int = 0):
    """Explicit intertwiner by group averaging, or None when inequivalent."""
    if r1.dim != r2.dim:
        return None
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((r1.dim, r2.dim)) + 1j * rng.standard_normal((r1.dim, r2.dim))
    t = np.einsum("gij,jk,glk->il", r1.mats, x, r2.mats.conj()) / len(r1.mats)
    if np.abs(t).max() < INTERTWINER_TOL:
        return None
    # scale to unitary via polar part
    u, s, vh = np.linalg.svd(t)
    if s.min() < INTERTWINER_TOL:
        return None
    return u @ vh
