import itertools
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from euciso import catalog, reps
from euciso.dual import rep_set, wave_orbits
from euciso.errors import CapExceeded, ConvergenceFailure, InternalInconsistency
from euciso.groups import DEFAULT_CAP, SubgroupView, build_quotient, tf_slice
from euciso.reps import (STRUCT_TOL, Representation, _Characters, _split_dense, char_inner,
                         char_norm_sq, check_irreducibles, chi,
                         distinct_constituents, equivalent, induce, intertwiner, irreps,
                         lift_representation, mackey_irreducible, multiplicities, multiplicity,
                         quotient_irreps, roots_of_unity, scale_by_character,
                         split_induced)

from conftest import (constituents, dual_action, p_rep_element, quotient, spec,
                      stabilizer_oracle, trivial_on)


def conjugacy_class_count(q):
    """Oracle: number of classes from the multiplication table alone."""
    seen, count = set(), 0
    for x in q.elements:
        if x in seen:
            continue
        count += 1
        for g in q.elements:
            seen.add(q.mul(q.mul(g, x), q.inv(g)))
    return count


def test_irrep_census_p1():
    rs = quotient_irreps(quotient("p1", 2))
    assert sorted(r.dim for r in rs) == [1, 1, 1, 1]


def test_irrep_census_pg():
    q = quotient("pg", 3)
    rs = quotient_irreps(q)
    assert sorted(r.dim for r in rs) == [1, 1, 1, 1, 1, 1, 2, 2, 2]
    assert len(rs) == conjugacy_class_count(q)


def test_irrep_census_helix_kernel_quotient():
    # collapsing the translations of the flip-free helix leaves the cyclic kernel
    q = build_quotient(tf_slice(spec("helix-C3")), 1)
    rs = quotient_irreps(q)
    assert sorted(r.dim for r in rs) == [1, 1, 1]


def test_irrep_completeness_and_orthogonality():
    for name, N in [("pm", 2), ("helix-C3", 1), ("twistE8", 2), ("screw-C4", 3),
                    ("twistE8", 4)]:
        q = quotient(name, N)
        rs = irreps(q)
        assert sum(r.dim ** 2 for r in rs) == q.order
        assert len(rs) == conjugacy_class_count(q)
        gram = np.array([[char_inner(a, b) for b in rs] for a in rs])
        assert np.abs(gram - np.eye(len(rs))).max() < 1e-6


def test_irreps_deterministic_given_seed():
    q = quotient("pg", 3)
    a = irreps(q, seed=5)
    b = irreps(q, seed=5)
    for ra, rb in zip(a, b):
        assert ra.dim == rb.dim
        assert np.abs(ra.char - rb.char).max() == 0.0
    # only the basis inside each irreducible depends on the seed: the dims and
    # characters, in order, are what `dual` prints
    q = quotient("twistE8", 2)
    for domain in (q, q.tf_subgroup()):
        first = irreps(domain, seed=0)
        for seed in (1, 2, 3):
            other = irreps(domain, seed=seed)
            assert [r.dim for r in other] == [r.dim for r in first]
            assert max(np.abs(ra.char - rb.char).max()
                       for ra, rb in zip(first, other)) < 1e-9


def test_full_quotient_solves_on_its_cached_table():
    # a view of every element takes the gather path; the quotient reads its cache
    for name, N in [("pg", 3), ("twistE8", 2)]:
        q = quotient(name, N)
        view = SubgroupView(q, q.elements)
        table, inv = reps._perm_arrays(q)
        assert table is q.mult_table() and inv is q._inverse
        assert all(np.array_equal(a, b) for a, b in zip((table, inv), reps._perm_arrays(view)))
        for a, b in zip(irreps(q, seed=1), irreps(view, seed=1)):
            assert a.mats.tobytes() == b.mats.tobytes()


@pytest.mark.parametrize("name,N", [("twistE8", 4), ("pg", 6), ("helix-C3", 6),
                                    ("twistE8-m4", 8)])
def test_ordered_matches_the_tuple_sort(rng, name, N):
    # the oracle sorts by Python tuples: the dim, then the 2n floats of the
    # rounded character
    q = quotient(name, N)
    irr = quotient_irreps(q)
    perm = rng.permutation(len(irr))
    stacks, chars = [irr[k].mats for k in perm], [irr[k].char for k in perm]
    want = sorted(range(len(perm)), key=lambda k: (stacks[k].shape[1],
                                                   tuple(np.round(chars[k], 6).view(float))))
    table, _ = reps._perm_arrays(q)
    got = reps._ordered(q, stacks, chars, table, rng)
    assert [r.mats.tobytes() for r in got] == [stacks[k].tobytes() for k in want]
    assert [r.mats.tobytes() for r in got] == [r.mats.tobytes() for r in irr]


def test_irreducible_order_is_one_full_lexsort(rng):
    # ties that outlast several key blocks, and full ties, which keep their order
    n = 5 * reps.KEY_BLOCK + 7
    chars = rng.integers(-1, 2, (60, n)) + 1j * rng.integers(-1, 2, (60, n))
    chars[:, :3 * reps.KEY_BLOCK] = chars[0, :3 * reps.KEY_BLOCK]
    chars[[5, 11, 40]] = chars[7]
    chars[20:30, -1] += 4e-7    # rounds to the next 6th decimal
    dims = rng.integers(1, 3, len(chars))
    want = np.lexsort([*np.round(chars, 6).view(float).T[::-1], dims])
    got = reps.irreducible_order(dims, lambda rows, ids: chars[rows, ids], n)
    assert got.tolist() == want.tolist()


def test_split_dense_separates_a_direct_sum(rng):
    q = quotient("pg", 3)
    parts = [next(r for r in quotient_irreps(q) if r.dim == 1),
             *[r for r in quotient_irreps(q) if r.dim == 2][:2]]
    total = np.zeros((q.order, 5, 5), dtype=complex)
    at = 0
    for r in parts:
        total[:, at:at + r.dim, at:at + r.dim] = r.mats
        at += r.dim
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    blocks = _split_dense(u.conj().T @ total @ u, rng)
    assert sorted(b.shape[1] for b in blocks) == [1, 2, 2]
    for r in parts:
        assert sum(np.abs(np.einsum("gii->g", b) - r.char).max() < 1e-9
                   for b in blocks) == 1


def test_split_dense_separates_a_repeated_constituent(rng):
    # rho + rho + sigma: the two copies of rho come back as two blocks
    q = quotient("pg", 3)
    rho, sigma = [r for r in quotient_irreps(q) if r.dim == 2][:2]
    total = np.zeros((q.order, 6, 6), dtype=complex)
    for at, r in [(0, rho), (2, rho), (4, sigma)]:
        total[:, at:at + 2, at:at + 2] = r.mats
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    blocks = _split_dense(u.conj().T @ total @ u, rng)
    chars = [np.einsum("gii->g", b) for b in blocks]
    assert sorted(sum(np.abs(ch - r.char).max() < 1e-9 for ch in chars)
                  for r in (rho, sigma)) == [1, 2]
    table = q.mult_table()
    for b in blocks:
        assert np.abs(b[:, None] @ b[None] - b[table]).max() < 1e-9


def test_constituents_of_a_reducible_induced_rep():
    # a pg label on the null set induces rho + rho' with rho, rho' inequivalent
    s, q = spec("pg"), quotient("pg", 3)
    tau = chi(s, (0, 0)).on(q)
    ind = induce(q, tau)
    assert not stabilizer_oracle(q, tau)
    assert not mackey_irreducible(char_norm_sq(ind), 2)
    pieces = constituents(ind, seed=3)
    found = multiplicities(np.array([np.einsum("gii->g", m) for m in pieces]),
                           np.array([r.char for r in irreps(q)]))
    assert (found.sum(axis=1) == 1).all()
    assert found.sum(axis=0) @ [r.dim for r in irreps(q)] == ind.dim
    kept, chars = distinct_constituents(pieces + pieces)
    assert [m.shape[1] for m in kept] == [p.shape[1] for p in pieces]
    assert all(m is p for m, p in zip(kept, pieces))
    assert np.array_equal(chars, [np.einsum("gii->g", m) for m in pieces])


def test_character_block_matches_the_scalar_predicate(rng):
    n, base = 12, rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
    block, kept = _Characters(40, n), []
    for _ in range(40):
        ch = base[rng.integers(4)] + rng.choice([0.5, 3.0]) * STRUCT_TOL * rng.choice([-1, 1], n)
        want = any(np.abs(ch - kc).max() < STRUCT_TOL for kc in kept)
        assert block.known(ch) == want
        if not want:
            block.add(ch)
            kept.append(ch)
    assert np.array_equal(block.rows, np.array(kept))
    full = _Characters(1, n)
    full.add(base[0])
    with pytest.raises(InternalInconsistency):
        full.add(base[1])


def test_multiplicities_refuse_a_non_integral_pairing():
    q = quotient("pg", 3)
    irr = np.array([r.char for r in quotient_irreps(q)])
    assert (multiplicities(irr, irr) == np.eye(len(irr))).all()
    with pytest.raises(InternalInconsistency):
        multiplicities(irr[:1] * 0.5, irr)


def test_check_irreducibles_probes_unitarity_and_products(rng):
    q = quotient("pg", 3)
    irr, table = quotient_irreps(q), q.mult_table()
    chars = np.array([r.char for r in irr])
    gram, stacks = chars @ chars.conj().T / q.order, [r.mats for r in irr]
    check_irreducibles(gram, stacks, table, rng)
    with pytest.raises(InternalInconsistency, match="orthogonality"):
        check_irreducibles(2 * gram, stacks, table, rng)
    with pytest.raises(InternalInconsistency, match="not unitary"):
        check_irreducibles(gram, [2 * stacks[-1]], table, rng)
    # unitary matrices placed at the wrong ids
    with pytest.raises(InternalInconsistency, match="not a homomorphism"):
        check_irreducibles(gram, [stacks[-1][rng.permutation(q.order)]], table, rng)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_check_irreducibles_refuses_a_bad_stack_of_each_dimension(rng, d):
    # d <= 2 stacks take the elementwise unitarity check and d = 4 the batched
    # matmul; each must see a single bad element in any stack, and the probe
    # must see misplaced images
    q = quotient("twistE8", 2)
    irr, table = quotient_irreps(q), q.mult_table()
    chars = np.array([r.char for r in irr])
    gram, stacks = chars @ chars.conj().T / q.order, [r.mats for r in irr]
    at = [i for i, r in enumerate(irr) if r.dim == d][0]
    check_irreducibles(gram, stacks, table, rng)
    for element in (0, q.order // 2 + 1, q.order - 1):
        scaled = stacks[at].copy()
        scaled[element, -1] *= 1 + 1e-4
        with pytest.raises(InternalInconsistency, match="not unitary"):
            check_irreducibles(gram, stacks[:at] + [scaled] + stacks[at + 1:], table, rng)
    moved = stacks[at][rng.permutation(q.order)]
    with pytest.raises(InternalInconsistency, match="not a homomorphism"):
        check_irreducibles(gram, stacks[:at] + [moved] + stacks[at + 1:], table, rng)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_unitary_defect_is_the_matmul_defect(rng, d):
    x = rng.standard_normal((300, d, d)) + 1j * rng.standard_normal((300, d, d))
    unitary = np.linalg.qr(x)[0]
    for mats in (unitary, x, unitary * (1 + 1e-7)):
        want = np.abs(mats.conj().swapaxes(1, 2) @ mats - np.eye(d)).max()
        assert reps._unitary_defect(mats) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_roots_of_unity_are_one_read_only_table_per_denominator():
    table = roots_of_unity(12)
    assert roots_of_unity(12) is table and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0
    assert table.tolist() == [reps.WaveCharacter((Fraction(j, 12),)).value((1,)) for j in range(12)]


def test_roots_of_unity_agree_across_denominators():
    # j / den and (j c) / (den c) round to the same double, so the two tables
    # hold the same root: a wave vector's phases do not depend on the
    # denominator it is written over, which the atlas's lazy labels rely on
    for den in range(1, 65):
        table = roots_of_unity(den)
        for c in range(1, 9):
            assert roots_of_unity(den * c)[::c].tobytes() == table.tobytes(), (den, c)


def test_cap_guard():
    # order 18432 is above both caps; refused before any table is built
    with pytest.raises(CapExceeded):
        irreps(quotient("twistE8", 24))


def test_solver_cap_refuses_quickly_and_allocates_nothing():
    # twistE8 mod T^6 (order 1152) is above SOLVER_CAP but within the table cap
    q = build_quotient(catalog.CATALOG["twistE8"].build(), 6)
    assert reps.SOLVER_CAP < q.order <= DEFAULT_CAP
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapExceeded, match="solver cap"):
            irreps(q)
        elapsed, (_, peak) = time.perf_counter() - start, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and elapsed < 1.0 and q._table is None


def test_equivalent_under_unitary_conjugation(rng):
    q = quotient("pg", 3)
    rho = next(r for r in quotient_irreps(q) if r.dim == 2)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(x)
    conj = Representation(q, [u.conj().T @ rho.matrix(i) @ u for i in q.elements])
    assert equivalent(rho, conj)
    t = intertwiner(rho, conj)
    assert t is not None
    assert max(np.abs(rho.matrix(i) @ t - t @ conj.matrix(i)).max() for i in q.elements) < 1e-9


def test_wave_characters_exact():
    s = spec("pg")
    q = quotient("pg", 3)
    zero = chi(s, (0, 0)).on(q)
    assert trivial_on(zero, zero.domain.elements)
    k = chi(s, (Fraction(1, 3), Fraction(2, 3)))
    for n in [(1, 0), (2, 2), (0, 1)]:
        expect = np.exp(2j * np.pi * (n[0] / 3 + 2 * n[1] / 3))
        assert abs(k.value(n) - expect) < 1e-12
    # kernel elements carry no phase
    helix = spec("helix-C3")
    qh = build_quotient(helix, 3)
    wave = chi(helix, (Fraction(1, 3),)).on(qh)
    for f in range(helix.f_order):
        i = int(qh.ids((0,), f, helix.p_identity))
        assert abs(wave.matrix(i)[0, 0] - 1) < 1e-12


def test_matrix_lookup_outside_the_domain_raises():
    q = quotient("pg", 3)
    wave = chi(q.spec, (Fraction(1, 3), 0)).on(q)
    with pytest.raises(KeyError):
        wave.matrix(p_rep_element(q, 1))


def test_matrix_lookup_outside_the_parent_ids_raises():
    # -1 must not wrap to the last id, on a quotient or on its TF part
    q = quotient("pg", 3)
    wave = chi(q.spec, (Fraction(1, 3), 0)).on(q)
    for rho in (irreps(q)[-1], wave):
        for bad in (-1, -q.order, q.order):
            with pytest.raises(KeyError):
                rho.matrix(bad)
            with pytest.raises(KeyError):
                rho.rows([0, bad])


def test_wave_character_equivalences():
    s = spec("pg")
    q = quotient("pg", 3)
    a = chi(s, (Fraction(1, 3), 0)).on(q)
    b = chi(s, (Fraction(2, 3), 0)).on(q)
    assert not equivalent(a, b)
    # shifting by a dual lattice vector changes nothing
    c = chi(s, (Fraction(1, 3) + 1, 0 + 2)).on(q)
    assert equivalent(a, c)


def test_dual_action_trivial_on_the_subgroup(rng):
    q = quotient("pg", 3)
    sub = q.tf_subgroup()
    rho = chi(q.spec, (Fraction(1, 3), Fraction(1, 3))).on(q)
    for _ in range(5):
        g = sub.elements[int(rng.integers(len(sub.elements)))]
        assert equivalent(dual_action(q, g, rho), rho)


def test_dual_action_glide_flips_wave_vector():
    s = spec("pg")
    q = quotient("pg", 3)
    glide = p_rep_element(q, 1)
    for a, b in [(1, 1), (2, 1), (0, 2)]:
        rho = chi(s, (Fraction(a, 3), Fraction(b, 3))).on(q)
        moved = dual_action(q, glide, rho)
        want = chi(s, (Fraction(a, 3), Fraction(-b, 3))).on(q)
        assert equivalent(moved, want)


def test_dual_action_is_an_action(rng):
    q = quotient("twistE8", 2)
    rho = next(r for r in irreps(q.tf_subgroup()) if r.dim == 2)
    for _ in range(6):
        g1, g2 = int(rng.integers(q.order)), int(rng.integers(q.order))
        lhs = dual_action(q, q.mul(g1, g2), rho)
        rhs = dual_action(q, g1, dual_action(q, g2, rho))
        assert equivalent(lhs, rhs)


def test_induce_index_one_is_identity():
    q = quotient("p1", 2)
    rho = chi(q.spec, (Fraction(1, 2), 0)).on(q)
    ind = induce(q, rho)
    assert ind.dim == 1
    assert all(abs(ind.matrix(i)[0, 0] - rho.matrix(i)[0, 0]) < 1e-12
               for i in q.tf_indices())


def test_induce_dimension_and_block_structure():
    s = spec("pg")
    q = quotient("pg", 3)
    rho = chi(s, (Fraction(1, 3), Fraction(1, 3))).on(q)
    ind = induce(q, rho)
    assert ind.dim == 2 * rho.dim
    # on TF elements the induced matrix is diagonal, off TF antidiagonal
    tf = set(q.tf_indices())
    for i in list(tf)[:4]:
        m = ind.matrix(i)
        assert abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12
    glide = p_rep_element(q, 1)
    m = ind.matrix(glide)
    assert abs(m[0, 0]) < 1e-12 and abs(m[1, 1]) < 1e-12


def test_mackey_examples():
    # pg's glide moves k = (1/3, 1/3) and fixes k = (1/3, 0): stabilizer
    # orders 1 and 2, the induced norms
    s = spec("pg")
    q = quotient("pg", 3)
    for k, stabilizer in [((Fraction(1, 3), Fraction(1, 3)), 1), ((Fraction(1, 3), 0), 2)]:
        rho = chi(s, k).on(q)
        norm = char_norm_sq(induce(q, rho))
        assert mackey_irreducible(norm, stabilizer) == stabilizer_oracle(q, rho)
        with pytest.raises(InternalInconsistency, match="stabilizer order"):
            mackey_irreducible(norm, 3 - stabilizer)
    # no cosets to test when the group equals its TF part
    s4 = spec("screw-C4")
    q4 = build_quotient(s4, 2)
    for rho in irreps(q4.tf_subgroup()):
        assert mackey_irreducible(char_norm_sq(induce(q4, rho)), 1)


def test_induction_constant_on_orbits():
    q = quotient("pg", 3)
    s = q.spec
    rho = chi(s, (Fraction(1, 3), Fraction(1, 3))).on(q)
    glide = p_rep_element(q, 1)
    moved = dual_action(q, glide, rho)
    assert equivalent(induce(q, rho), induce(q, moved))


def test_every_irrep_sits_inside_an_induced_rep():
    q = quotient("pg", 3)
    tf_irreps = irreps(q.tf_subgroup())
    induced = [induce(q, r) for r in tf_irreps]
    for sigma in irreps(q):
        assert any(multiplicity(ind, sigma) >= 1 for ind in induced)


def test_lifted_irreps_are_the_periodic_ones():
    coarse = quotient("p1", 2)
    fine = quotient("p1", 4)
    lifted = [lift_representation(r, fine) for r in quotient_irreps(coarse)]
    # elements of the N=2 translation block inside the N=4 quotient
    n, f, p = fine.parts(fine.elements)
    block = np.flatnonzero((n % 2 == 0).all(axis=1) & (f == fine.spec.f_identity)
                           & (p == fine.spec.p_identity)).tolist()
    periodic = [r for r in quotient_irreps(fine) if trivial_on(r, block)]
    assert len(periodic) == len(lifted) == 4
    for lift in lifted:
        assert sum(equivalent(lift, r) for r in periodic) == 1


def test_character_helper():
    q = quotient("p1", 2)
    rho = quotient_irreps(q)[0]
    assert rho.char[q.identity] == pytest.approx(rho.dim)


def test_scale_by_character_matches_pointwise():
    s = spec("pg")
    q = quotient("pg", 3)
    rho = irreps(q.tf_subgroup())[3]
    wave = chi(s, (Fraction(1, 3), 0))
    scaled = scale_by_character(wave, rho)
    for i in list(rho.domain.elements)[:6]:
        want = wave.value(q.parts(i)[0].tolist()) * rho.matrix(i)
        assert np.abs(scaled.matrix(i) - want).max() < 1e-12


def test_wave_phases_equal_value():
    # every wave vector of the grid, plus some off the grid and outside [0, 1)
    for name, N in [("pg", 3), ("helix-C3", 6), ("twistE8", 4)]:
        s = spec(name)
        q = quotient(name, N)
        ks = [tuple(Fraction(x, N) for x in a)
              for a in itertools.product(range(N), repeat=s.d2)]
        ks += [(Fraction(-7, 5),) * s.d2, (Fraction(13, 3),) + (Fraction(1, 7),) * (s.d2 - 1)]
        for k in ks:
            wave = chi(s, k)
            want = [wave.value(n) for n in q.parts(q.elements)[0].tolist()]
            assert wave.phases(q).tolist() == want
            assert wave.phases(q.tf_subgroup()).tolist() == want[s.p_identity::s.rot_order]


def brute_induced_character(q, tau):
    """Oracle: chi(g) = sum_i [h_i^-1 g h_i in TF] chi_tau(h_i^-1 g h_i)."""
    tf = set(q.tf_indices())
    cosets = [p_rep_element(q, p) for p in range(q.spec.rot_order)]
    out = []
    for g in q.elements:
        acc = 0j
        for h in cosets:
            x = q.mul(q.mul(q.inv(h), g), h)
            if x in tf:
                acc += np.trace(tau.matrix(x))
        out.append(acc)
    return np.array(out)


def test_induced_character_matches_brute_force():
    for name, N in [("pg", 3), ("twistE8", 2)]:
        s = spec(name)
        q = quotient(name, N)
        rs = rep_set(s)
        for idx, rho in enumerate(rs.classes):
            lifted = lift_representation(rho, q)
            for label in wave_orbits(s, rs, idx, N):
                tau = scale_by_character(chi(s, label.k), lifted)
                want = brute_induced_character(q, tau)
                assert np.abs(induce(q, tau).char - want).max() < 1e-9


def test_split_induced_refuses_an_irreducible_induced_rep():
    # pg at N = 3: k = (1/3, 1/3) lies off the null set, so Ind chi_k is irreducible
    s, q = spec("pg"), quotient("pg", 3)
    wave = chi(s, (Fraction(1, 3), Fraction(1, 3)))
    with pytest.raises(ConvergenceFailure, match="did not terminate"):
        next(split_induced(q, chi(s, (0, 0)).on(q), wave.phases(q.tf_subgroup())[None]))


def test_induce_rejects_a_non_homomorphism(rng):
    q = quotient("pg", 3)
    sub = q.tf_subgroup()
    x = rng.standard_normal((sub.order, 2, 2)) + 1j * rng.standard_normal((sub.order, 2, 2))
    unitaries, _ = np.linalg.qr(x)
    with pytest.raises(InternalInconsistency):
        induce(q, Representation(sub, unitaries))


def negated_at_a_generator(q, mats):
    bad = mats.copy()
    bad[q.generators[0]] *= -1
    return bad


def test_homomorphism_check_refuses_a_negated_generator_image():
    s, q = spec("twistE8"), quotient("twistE8", 2)
    tau = scale_by_character(chi(s, (0, 0)), lift_representation(rep_set(s).classes[0], q))
    mats = induce(q, tau).mats
    reps._check_homomorphism(q, mats, "induced rep")
    with pytest.raises(InternalInconsistency, match="induced rep fails homomorphism"):
        reps._check_homomorphism(q, negated_at_a_generator(q, mats), "induced rep")


def test_homomorphism_check_refuses_a_corrupted_split_constituent():
    s, q = spec("twistE8"), quotient("twistE8", 4)
    rho = lift_representation(rep_set(s).classes[0], q)
    for mats in next(split_induced(q, rho, np.ones((1, rho.mats.shape[0])))):
        with pytest.raises(InternalInconsistency, match="split constituent fails homomorphism"):
            reps._check_homomorphism(q, negated_at_a_generator(q, mats), "split constituent")
