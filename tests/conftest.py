import contextlib
import itertools
import json
import math
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from euciso import catalog, io
from euciso import isometry as iso
from euciso.dual import enumerate_dual, rep_set, wave_orbits
from euciso.errors import ConvergenceFailure, EucisoError, InternalInconsistency, NotAMember
from euciso.fourier import FourierTable, PeriodicFunction
from euciso.groups import (DEFAULT_CAP, ORDER_BOUND, Collection, GroupSpec, NormalForm, Violation,
                           _cocycle, _conjugates, _factor, _kernel, _match_f, _rep_products,
                           build_quotient, find_m0, grid_points, normal_form, normal_forms)
from euciso.reps import (MAX_RESEEDS, STRUCT_TOL, Representation, _split_dense, char_norm_sq,
                         chi, equivalent, induce, irreps, lift_representation,
                         multiplicities, scale_by_character,
                         split_induced)

# derandomized examples keep tier-1 deterministic; no deadline, as host speed varies
settings.register_profile("euciso", derandomize=True, deadline=None)
settings.load_profile("euciso")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


class Hung(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds):
    """Raise Hung in the block once it has run this long (SIGALRM, main thread)."""
    def hung(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def spec(name):
    return catalog.get(name)


def quotient(name, N):
    return build_quotient(catalog.get(name), N)


def cyclic(k):
    """The rotations of the plane by multiples of 2 pi / k."""
    return [iso.rotation2(2 * math.pi * j / k) for j in range(k)]


def rod_spec(k, flip, alpha):
    """Screw rod by angle alpha over a C_k kernel; the flip reverses the axis."""
    p_reps = [iso.identity_isometry(2, 1)]
    if flip:
        p_reps.append(iso.Isometry(np.diag([1.0, -1.0]), ((-1,),), (0,)))
    return GroupSpec(f"rod-C{k}", 2, 1, cyclic(k),
                     [iso.Isometry(iso.rotation2(alpha), ((1,),), (1,))], p_reps)


def translation_isometry(d1, v):
    v = iso.frac_vector(v)
    return iso.Isometry(np.eye(d1), iso.identity_int_matrix(len(v)), v)


def compose_all(factors):
    factors = list(factors)
    acc = factors[0]
    for f in factors[1:]:
        acc = iso.compose(acc, f)
    return acc


def pmat_vec(a, v):
    """The integer matrix a times the vector v, entry by entry in v's number type."""
    n = len(a)
    return tuple(sum(a[i][k] * v[k] for k in range(n)) for i in range(n))


def compose_oracle(g, h):
    """Oracle for `iso.compose`: the product's translation in Fraction arithmetic,
    its blocks through the validating constructor."""
    tau = tuple(a + b for a, b in zip(g.tau, pmat_vec(g.p, h.tau)))
    return iso.Isometry(g.q @ h.q, iso.pmat_mul(g.p, h.p), tau)


def inverse(g):
    """Inverse (A^-1, -A^-1 b); the q block inverts as a transpose."""
    p_inv = iso.pmat_inv(g.p)
    tau = tuple(-t for t in pmat_vec(p_inv, g.tau))
    return iso.Isometry(g.q.T.copy(), p_inv, tau)


def power(g, n):
    if n < 0:
        return power(inverse(g), -n)
    acc = iso.identity_isometry(g.d1, g.d2)
    for _ in range(n):
        acc = iso.compose(acc, g)
    return acc


def section(s, n):
    """t(n) = g1^n1 ... g_d2^n_d2 as an isometry; tau block is exactly n."""
    n = tuple(int(x) for x in n)
    return iso.Isometry(s.section_q([n])[0], iso.identity_int_matrix(s.d2),
                        tuple(Fraction(x) for x in n))


def is_member(s, g):
    try:
        normal_form(s, g)
        return True
    except NotAMember:
        return False


def q_equal(a, b, tol=iso.DEFAULT_TOL):
    return a.size == 0 or float(np.abs(a - b).max()) <= tol


def reconstruct(s, nf):
    """The isometry t(n)*f*p encoded by a normal form."""
    return compose_all([section(s, nf.n), s.f_iso(nf.f), s.p_reps[nf.p]])


def mult_table_oracle(q):
    """The multiplication table of q, with every product factored as q blocks.

    For each x = f*p, `normal_forms` factors every x*j as t(m) f' p'; for each
    exponent-grid point a it factors t(a) t(b) = t(a+b) z(a,b) over the grid.
    Then t(a)*x*j = t(a+m) z(a,m) f' p'.
    """
    s, n = q.spec, q.order
    d, p_mat, p_tau, p_q = s.points
    el_n, el_f, el_p = q.parts(q.elements)
    el_q = s.section_q(el_n) @ (s.f_stack[el_f] @ p_q[el_p])
    el_tau = el_n * d + p_tau[el_p]
    xs = np.flatnonzero(~el_n.any(axis=1))
    prod_p = s.p_mul_table()[el_p[xs, None], el_p]
    x_nf = [normal_forms(s, el_q[x] @ el_q, pp, p_tau[el_p[x]] + el_tau @ p_mat[el_p[x]].T)
            for x, pp in zip(xs, prod_p)]
    xj = q.ids(np.array([m for m, _ in x_nf]), [f for _, f in x_nf], prod_p)
    t_ids = np.flatnonzero((el_f == s.f_identity) & (el_p == s.p_identity))
    grid = el_n[t_ids]
    t_q = s.section_q(grid)
    t_of = q.ids(el_n, s.f_identity, s.p_identity)
    fmul = np.array(s.f_mul_table())
    zeta = np.empty(n, dtype=np.int64)
    table = np.empty((n, n), dtype=np.int32)
    for a, a_q, ax in zip(grid, t_q, q.ids(grid[:, None], el_f[xs], el_p[xs])):
        _, zeta[t_ids] = normal_forms(s, a_q @ t_q, [s.p_identity] * len(grid), (a + grid) * d)
        table[ax] = q.ids(a + el_n, fmul[zeta[t_of], el_f], el_p)[xj]
    return table


def section_q_oracle(s, n):
    """`GroupSpec.section_q` as a chain of products from a broadcast identity,
    each power read from the spec's `_gen_q_powers` stack."""
    n = np.asarray(n, dtype=np.int64)
    q = np.broadcast_to(np.eye(s.d1), (len(n), s.d1, s.d1))
    for i in range(s.d2):
        powers = s._gen_q_powers(i, int(np.abs(n[:, i]).max(initial=0)))
        q = q @ powers[n[:, i] + len(powers) // 2]
    return q


def collection_oracle(q):
    """`QuotientGroup.collection` with one `normal_forms` call per stack (p*p',
    p*t(m)*p^-1 and t(c)*g_i) and one `_match_f` call each for phi and psi."""
    spec, N = q.spec, q.N
    assert q.order <= DEFAULT_CAP
    k, r, d1, d2 = spec.f_order, spec.rot_order, spec.d1, spec.d2
    d, p_mat, _, p_q = spec.points
    fmul = np.array(spec.f_mul_table(), dtype=np.int64).reshape(k, k)
    pmul, one_f, one_p = spec.p_mul_table(), spec.f_identity, spec.p_identity

    def code(v):
        return v % N @ q._place

    cells = N ** d2
    grid = grid_points(N, d2)
    g_q = spec.section_q(grid)
    t_q = np.array([t.q for t in spec.t_lifts]).reshape(d2, d1, d1)
    units = np.eye(d2, dtype=np.int64)
    wide = (2 * N) ** np.arange(d2 - 1, -1, -1, dtype=np.int64)
    s, f2 = normal_forms(spec, *_rep_products(spec))
    v, c = normal_forms(spec, _conjugates(p_q, g_q), np.full(r * cells, one_p),
                        d * (grid @ p_mat.swapaxes(1, 2)).reshape(r * cells, d2))
    phi = _kernel(spec, _match_f(spec, _conjugates(p_q, spec.f_stack))).reshape(r, k)
    psi = _kernel(spec, _match_f(spec, _conjugates(g_q.swapaxes(1, 2), spec.f_stack)))
    psi = psi.reshape(cells, k)
    _, y = normal_forms(spec, (g_q[None] @ t_q[:, None]).reshape(d2 * cells, d1, d1),
                        np.full(d2 * cells, one_p),
                        d * (grid[None] + units[:, None]).reshape(d2 * cells, d2))
    z = None if k == 1 else _cocycle(N, grid, fmul, y.reshape(d2, cells), psi[code(units)], one_f)
    return Collection(fmul=fmul, f_inv=np.argmax(fmul == one_f, axis=1), p_mul=pmul,
                      p_inv=np.argmax(pmul == one_p, axis=1), grid=grid, spread=grid @ wide,
                      wrap=code(np.arange((2 * N) ** d2)[:, None] // wide % (2 * N)),
                      s_code=code(s).reshape(r, r), f2=f2.reshape(r, r),
                      v_code=code(v).reshape(r, cells), c=c.reshape(r, cells),
                      phi=phi, psi=psi, z=z)


def closure_oracle(q, seeds) -> set[int]:
    """The subgroup generated by seeds, as a set of ids: multiply the members
    found last by the seeds until none is new."""
    seeds = set(seeds)
    out = seeds | {q.identity}
    frontier = out
    while frontier:
        block = q.products(np.array(list(frontier), dtype=np.int64)[:, None],
                           np.array(list(seeds), dtype=np.int64))
        frontier = set(block.ravel().tolist()) - out
        out |= frontier
    return out


def c5_quarter_spec():
    """A plane group over the kernel C5 < O(4), R(th) + R(2 th) with th = 2 pi / 5,
    whose quarter turn of the lattice conjugates F by the automorphism f -> f^2
    of order 4.  Its rep_set merges the four nontrivial kernel characters by
    point parts of order 4, so g_p . rho and g_p^-1 . rho tell the
    conjugation's direction apart, which no catalog group does; m0 = 1."""
    th = 2 * math.pi / 5
    kernel = [iso.block_diag(iso.rotation2(k * th), iso.rotation2(2 * k * th)) for k in range(5)]
    zero, one = np.zeros((2, 2)), iso.identity_int_matrix(2)
    quarter = np.block([[zero, np.eye(2)], [np.diag([1.0, -1.0]), zero]])
    turn = np.array([[0, -1], [1, 0]])
    p_reps = [iso.Isometry(np.linalg.matrix_power(quarter, j),
                           iso.int_matrix(np.linalg.matrix_power(turn, j).tolist()), (0, 0))
              for j in range(4)]
    lifts = [iso.Isometry(np.eye(4), one, e) for e in one]
    return GroupSpec("c5-quarter", 4, 2, kernel, lifts, p_reps)


def s3_plane_spec(alpha=0.7):
    """A plane group over the non-abelian kernel S3 whose lifts do not commute.

    The lifts carry the transpositions (0 1) and (1 2) of S3, so t(a) t(b)
    = t(a+b) z(a,b) with z nontrivial, and a glide along the diagonal swaps
    the axes and conjugates S3 by (0 2).  The rotation blocks keep the lifts
    out of F; m0 = 6.
    """
    perm = [np.eye(3)[list(p)] for p in itertools.permutations(range(3))]
    kernel = [iso.block_diag(m, np.eye(2)) for m in perm]
    one = iso.identity_int_matrix(2)
    g1 = iso.Isometry(iso.block_diag(perm[2], iso.rotation2(alpha)), one, (1, 0))
    g2 = iso.Isometry(iso.block_diag(perm[1], iso.rotation2(-alpha)), one, (0, 1))
    glide = iso.Isometry(iso.block_diag(perm[5], np.diag([1.0, -1.0])), ((0, 1), (1, 0)),
                         (Fraction(1, 2), Fraction(1, 2)))
    return GroupSpec("s3-plane", 5, 2, kernel, [g1, g2], [iso.identity_isometry(5, 2), glide])


def rotations_of_cube(tetrahedral):
    """Signed permutation matrices of determinant 1: the rotations of a cube
    (S4), or with even permutations only those of a tetrahedron (A4)."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.diag(signs)[list(perm)]
            even = np.linalg.det(np.eye(3)[list(perm)]) > 0
            if np.linalg.det(m) > 0 and (even or not tetrahedral):
                out.append(m)
    return out


def s4_plane_spec():
    """A plane group over the rotations of a cube (S4) whose lifts are the
    quarter turns about z and x.  They generate S4, so the section cocycle
    takes values in A4, which is not abelian; m0 = 12."""
    one = iso.identity_int_matrix(2)
    rz = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1]])
    rx = np.array([[1.0, 0, 0], [0, 0, -1], [0, 1, 0]])
    return GroupSpec("s4-plane", 3, 2, rotations_of_cube(False),
                     [iso.Isometry(rz, one, (1, 0)), iso.Isometry(rx, one, (0, 1))],
                     [iso.identity_isometry(3, 2)])


def p_rep_element(q, p):
    """The id of the p-th p_rep, t(0)*f_id*p."""
    return q.reduce(NormalForm((0,) * q.spec.d2, q.spec.f_identity, p))


def dual_action(q, g, r):
    """(g . rho)(h) = rho(g^-1 h g) for rho on a normal subgroup view."""
    sub = r.domain
    table = q.mult_table()
    rows = sub.local[table[table[q.inv(g), list(sub.elements)], g]]
    if (rows < 0).any():
        raise InternalInconsistency("conjugation left the subgroup")
    return Representation(sub, r.mats[rows])


def k_shift_reps(s, m):
    """Oracle input: representatives of (dual lattice / m) modulo the dual
    lattice as Fraction vectors, in grid order."""
    return [tuple(Fraction(a, m) for a in vec) for vec in itertools.product(range(m), repeat=s.d2)]


def little_group_pairs(lg):
    """A little group's (p, b) arrays in `rep_set_oracle`'s form: each p_rep
    index mapped to its shifts s = b / m0 as Fraction vectors, in order."""
    pairs = {}
    for p, b in zip(lg.p.tolist(), lg.b.tolist()):
        pairs.setdefault(p, []).append(tuple(Fraction(x, lg.m0) for x in b))
    return pairs


def rep_set_oracle(s, seed=0):
    """`dual.rep_set` on matrix stacks: every g_p . rho by `dual_action` and
    every chi_k rho by `scale_by_character`, compared by `equivalent`.
    Returns the classes, the provenance and each class's little-group pairs."""
    m0 = find_m0(s).m0
    q = build_quotient(s, m0)
    shifts = k_shift_reps(s, m0)
    cosets = [p_rep_element(q, p) for p in range(s.rot_order)]
    classes, twists, provenance = [], [], []
    for ci, rho in enumerate(irreps(q.tf_subgroup(), seed=seed)):
        moved = [dual_action(q, g, rho) for g in cosets]
        match = next(({"candidate": ci, "matched_class": ki, "p_index": p, "shift": shifts[si]}
                      for ki, kept in enumerate(classes) if kept.dim == rho.dim
                      for p, rho_p in enumerate(moved)
                      for si, twisted in enumerate(twists[ki]) if equivalent(rho_p, twisted)),
                     None)
        if match is None:
            classes.append(rho)
            twists.append([scale_by_character(chi(s, k), rho) for k in shifts])
        else:
            provenance.append(match)
    pairs = []
    for rho, twisted in zip(classes, twists):
        moved = [dual_action(q, g, rho) for g in cosets]
        hits = {p: [k for k, t in zip(shifts, twisted) if equivalent(rho_p, t)]
                for p, rho_p in enumerate(moved)}
        pairs.append({p: found for p, found in hits.items() if found})
    return classes, provenance, pairs


def stabilizer_oracle(q, r):
    """True iff no nontrivial coset moves r to an equivalent representation,
    compared on `dual_action` stacks."""
    return not any(equivalent(dual_action(q, p_rep_element(q, p), r), r)
                   for p in range(q.spec.rot_order) if p != q.spec.p_identity)


def constituents(r, seed=0):
    """The irreducible constituents of a unitary representation, with
    multiplicity, as (n, d, d) stacks, split on its full stack by
    `_split_dense`; an irreducible r comes back as is.  Reseeded
    (seed + attempt) on a bad random draw."""
    last_error = None
    for attempt in range(MAX_RESEEDS):
        try:
            return _split_dense(r.mats, np.random.default_rng(seed + attempt))
        except ConvergenceFailure as exc:
            last_error = exc
    raise ConvergenceFailure(f"split failed after {MAX_RESEEDS} reseeds: {last_error}")


def eager_irreps_oracle(s, N, seed=0):
    """The quotient's irreducible stacks as the dual atlas once built them:
    every label induced, a reducible one split by `split_induced`, one stack
    per character kept within each label, and all sorted by one np.lexsort
    over the dim and the full rounded characters."""
    q = build_quotient(s, N)
    rs = rep_set(s, seed=seed)
    stacks, chars = [], []
    for rho_index, rho in enumerate(rs.classes):
        lifted = lift_representation(rho, q)
        for label in wave_orbits(s, rs, rho_index, N):
            wave = chi(s, label.k)
            ind = induce(q, scale_by_character(wave, lifted))
            pieces = ([ind.mats] if abs(char_norm_sq(ind) - 1) < STRUCT_TOL
                      else next(split_induced(q, lifted, wave.phases(q.tf_subgroup())[None], seed)))
            ch = np.array([np.einsum("gii->g", m) for m in pieces])
            first = multiplicities(ch, ch).argmax(axis=1)
            for k in np.flatnonzero(first == np.arange(len(pieces))):
                stacks.append(pieces[k])
                chars.append(ch[k])
    parts = np.round(np.array(chars), 6).view(float)
    order = np.lexsort([*parts.T[::-1], [m.shape[1] for m in stacks]])
    return [stacks[k] for k in order]


def trivial_on(r, ids):
    """True iff the representation r is the identity at every id."""
    mats = r.mats[r.rows(list(ids))]
    return bool((np.abs(mats - np.eye(r.dim)) < STRUCT_TOL).all())


def reference_json(obj) -> str:
    """What `io.canonical_json` must return: json's own canonical dump."""
    return json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": "),
                      default=io._coerce) + "\n"


def dim_stacks(reps):
    """`DualAtlas.stacks` built anew from a list of irreducibles: per dimension
    d, in order of first appearance, the indices of its k irreducibles and
    their images as one (n, k, d, d) array."""
    by_dim = {}
    for ri, rho in enumerate(reps):
        by_dim.setdefault(rho.dim, []).append(ri)
    return {d: (idx, np.stack([reps[ri].mats for ri in idx], axis=1))
            for d, idx in by_dim.items()}


def transform_oracle(u, seed=0):
    """`fourier.transform` as it stacked the irreducibles on every call."""
    n = u.q.order
    m, mm = u.shape
    flat = u.values.reshape(n, m * mm)
    stacks = {}
    atlas = enumerate_dual(u.q.spec, u.q.N, seed)
    for d, (idx, stack) in dim_stacks(atlas.irreps).items():
        acc = (flat.T @ stack.reshape(n, -1) / n).reshape(m, mm, len(idx), d, d)
        acc = acc.transpose(2, 0, 3, 1, 4)
        stacks[d] = np.ascontiguousarray(acc).reshape(len(idx), m * d, mm * d)
    return FourierTable(atlas, u.shape, stacks)


def inverse_oracle(table):
    """`fourier.inverse_transform` as it stacked and conjugated in place on every call."""
    m, n = table.shape
    dense = np.zeros((table.q.order, m * n), dtype=complex)
    for d, (idx, stack) in dim_stacks(table.atlas.irreps).items():
        blocks = np.stack([table.entries[ri].reshape(m, d, n, d) for ri in idx])
        blocks = blocks.transpose(0, 2, 4, 1, 3).reshape(len(idx) * d * d, m * n)
        stack = stack.reshape(len(stack), -1)
        dense += d * (np.conj(stack, out=stack) @ blocks)
    return PeriodicFunction(table.q, table.shape, dense.reshape(-1, m, n))


def transform_at_oracle(u, rho, q):
    """`SummableFunction.transform_at` as it summed one irreducible at a time:
    sum_g u(g) (x) rho(g) over the support, unnormalized."""
    m, n = u.shape
    acc = np.zeros((m * rho.dim, n * rho.dim), dtype=complex)
    for nf, val in u.support.items():
        acc += np.kron(val, rho.matrix(q.reduce(nf)))
    return acc


def validate_spec_oracle(spec: GroupSpec) -> list[Violation]:
    """`validate_spec` one element or pair at a time, with a `_match_f` or
    `_factor` call per check: the same violations in the same order."""
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
    k, d1, d2 = spec.f_order, spec.d1, spec.d2
    f = spec.f_stack.reshape(k, d1, d1)
    closed = _match_f(spec, (f[:, None] @ f[None]).reshape(k * k, d1, d1)).reshape(k, k) >= 0
    inverse = _match_f(spec, f.swapaxes(1, 2)) >= 0
    for i in range(k):
        out += [Violation("f-closed", f"F not closed: F[{i}]*F[{j}] missing")
                for j in np.flatnonzero(~closed[i])]
        if not inverse[i]:
            out.append(Violation("f-inverse", f"F not closed under inverse at F[{i}]"))
    coincide = np.abs(f[:, None] - f[None]).max(axis=(2, 3), initial=0.0) <= tol
    out += [Violation("f-distinct", f"F[{i}] and F[{j}] coincide")
            for i, j in zip(*np.nonzero(np.triu(coincide, 1)))]

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
    one = spec.p_index(iso.identity_int_matrix(spec.d2))
    if one is None:
        out.append(Violation("p-identity", "p_reps does not contain the identity"))
    elif (any(spec.p_reps[one].tau)
          or np.abs(spec.p_reps[one].q - np.eye(len(spec.p_reps[one].q))).max(initial=0.0) > tol):
        out.append(Violation("p-identity", f"p_reps[{one}] has the identity point part "
                             f"but is not the identity"))
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
        if iso.pmat_order(g.p, ORDER_BOUND) is None:
            out.append(Violation("p-order", f"p_reps[{i}] order exceeds bound {ORDER_BOUND}"))
    for a in pmats:
        for b in pmats:
            if iso.pmat_mul(a, b) not in pset:
                out.append(Violation("p-group", "point parts not closed under products"))
                break
        if iso.pmat_inv(a) not in pset:
            out.append(Violation("p-group", "point parts not closed under inverse"))
    if out:
        # skip conjugation checks when the raw data is already broken
        return list(dict.fromkeys(out))

    # F normal under all generators: g*f*g^-1 has point part 1 and tau = 0
    gens = [("t", t.q) for t in spec.t_lifts] + [("p", p.q) for p in spec.p_reps]
    g_q = np.array([q for _, q in gens]).reshape(len(gens), d1, d1)
    outside = _match_f(spec, _conjugates(g_q, f)).reshape(len(gens), k) < 0
    out += [Violation("f-normal", f"conjugate of F[{i}] by a {tag}-generator left F")
            for (tag, _), row in zip(gens, outside) for i in np.flatnonzero(row)]

    # commutators of section generators land in F; by t-point and t-tau
    # their (p, tau) block is trivial
    pairs = list(itertools.combinations(range(d2), 2))
    t_q = g_q[:d2]
    qi, qj = t_q[[i for i, _ in pairs]], t_q[[j for _, j in pairs]]
    comm = (qi @ qj @ qi.swapaxes(1, 2) @ qj.swapaxes(1, 2)).reshape(len(pairs), d1, d1)
    out += [Violation("t-commutator", f"[g{i+1}, g{j+1}] q block lies outside F")
            for (i, j), fi in zip(pairs, _match_f(spec, comm)) if fi < 0]

    # presentation closure: p*p' and p*t*p^-1 must normal-form.  The point
    # parts come from p_mul_table, which p-group makes safe; p*t_j*p^-1 has
    # point part 1 and tau = P e_j
    d, p_mat, _, p_q = spec.points
    r = spec.rot_order
    _, prod_f, _ = _factor(spec, *_rep_products(spec))
    _, conj_f, _ = _factor(spec, _conjugates(p_q, t_q), [spec.p_identity] * (r * d2),
                           d * p_mat.swapaxes(1, 2).reshape(r * d2, d2))
    for prod_row, conj_row in zip(prod_f.reshape(r, r), conj_f.reshape(r, d2)):
        if (prod_row < 0).any():
            out.append(Violation("p-closure", "product of p_reps has no normal form"))
        if (conj_row < 0).any():
            out.append(Violation("p-conjugation",
                                 "conjugate of a t_lift by a p_rep has no normal form"))

    return list(dict.fromkeys(out))


def pmat_mul_oracle(a: iso.IntMatrix, b: iso.IntMatrix) -> iso.IntMatrix:
    """`iso.pmat_mul` entry by entry, each a generator sum."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def pmat_det_oracle(a: iso.IntMatrix) -> int:
    """`iso.pmat_det` by cofactor expansion along the first row."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    det = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
        det += (-1) ** j * a[0][j] * pmat_det_oracle(minor)
    return det


def pmat_inv_oracle(a: iso.IntMatrix) -> iso.IntMatrix:
    """`iso.pmat_inv` by Gaussian elimination over the rationals."""
    n = len(a)
    det = pmat_det_oracle(a)
    if det not in (1, -1):
        raise EucisoError(f"point part has determinant {det}, not a lattice map")
    if n == 0:
        return a
    # Gaussian elimination over the rationals; entries of the result are
    # integers because |det| = 1.
    work = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    inv = tuple(tuple(int(work[i][n + j]) for j in range(n)) for i in range(n))
    return inv


def pmat_order_oracle(a: iso.IntMatrix, bound: int = 48) -> int | None:
    """`iso.pmat_order` over `pmat_mul_oracle`."""
    ident = iso.identity_int_matrix(len(a))
    power = a
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = pmat_mul_oracle(power, a)
    return None
