import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from euciso import catalog, dual, reps
from euciso import isometry as iso
from euciso.dual import enumerate_dual, null_set_member, rep_set, wave_orbits
from euciso.errors import InternalInconsistency
from euciso.groups import (GroupSpec, build_quotient, find_m0, grid_points, tf_slice,
                           validate_spec)
from euciso.reps import (STRUCT_TOL, char_norm_sq, chi, equivalent, induce,
                         induced_character, irreps, lift_representation, mackey_irreducible,
                         multiplicities, scale_by_character, split_induced)

from conftest import (c5_quarter_spec, constituents, dual_action, eager_irreps_oracle,
                      k_shift_reps, little_group_pairs, p_rep_element, pmat_vec, quotient,
                      rep_set_oracle, s3_plane_spec, spec, stabilizer_oracle)


def dual_point_matrix(p):
    """Reference: P^-T by exact Fraction elimination, then a transpose."""
    return tuple(zip(*iso.pmat_inv(p)))


def oracle_operations(s, lg):
    """The little group's operations mapped back to (D_p, s) with s in Fractions."""
    return [(dual_point_matrix(s.p_reps[p].p), tuple(Fraction(x, lg.m0) for x in b))
            for p, b in zip(lg.p.tolist(), lg.b.tolist())]


def null_oracle(s, k):
    """Reference: some nontrivial point part moves k by a vector of L*/m0."""
    m0 = find_m0(s).m0
    ident = iso.identity_int_matrix(s.d2)
    for p in s.p_reps:
        d = dual_point_matrix(p.p)
        if d == ident:
            continue
        moved = pmat_vec(d, k)
        if all(((a - b) * m0).denominator == 1 for a, b in zip(moved, k)):
            return True
    return False


def brute_orbits(points, ops):
    """Oracle: orbit partition by repeated application of (D, s) pairs."""
    remaining = set(points)
    orbits = []
    while remaining:
        start = remaining.pop()
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for d, s in ops:
                nxt = tuple((a + b) % 1 for a, b in
                            zip(pmat_vec(d, cur), s))
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        remaining -= orbit
        orbits.append(orbit)
    return orbits


def test_rep_set_sizes():
    assert len(rep_set(spec("p1")).classes) == 1
    assert len(rep_set(spec("pg")).classes) == 1
    rs = rep_set(spec("helix-C3"))
    assert len(rs.classes) == 2
    # the two nontrivial kernel characters were merged by the flip
    assert len(rs.provenance) == 1
    assert rs.provenance[0]["p_index"] == 1


def test_rep_set_members_pairwise_inequivalent_under_twist():
    s = spec("twistE8")
    rs = rep_set(s)
    q = rs.quotient
    shifts = [chi(s, k) for k in
              [tuple(Fraction(a, rs.m0) for a in v)
               for v in [(0, 0), (1, 0), (0, 1), (1, 1)]]]
    for i, a in enumerate(rs.classes):
        for j, b in enumerate(rs.classes):
            if i >= j:
                continue
            for p in range(s.rot_order):
                moved = dual_action(q, p_rep_element(q, p), a)
                for wave in shifts:
                    assert not equivalent(moved, scale_by_character(wave, b))


TWIST_SPECS = [*(pytest.param(lambda name=name: spec(name), id=name) for name in catalog.names()),
               *(pytest.param(lambda name=name: tf_slice(spec(name)), id=f"{name}-slice")
                 for name in catalog.names()),
               pytest.param(c5_quarter_spec, id="c5-quarter")]


@pytest.mark.parametrize("build", TWIST_SPECS)
def test_rep_set_matches_the_stack_oracle(build):
    # rep_set decides the twisted action on characters; the oracle builds
    # every moved and twisted (|TF|, d, d) stack and compares those
    s = build()
    rs = rep_set(s)
    classes, provenance, pairs = rep_set_oracle(s)
    assert len(rs.classes) == len(classes)
    assert all(np.array_equal(a.char, b.char) for a, b in zip(rs.classes, classes))
    assert rs.provenance == provenance
    assert [little_group_pairs(lg) for lg in rs.little_groups] == pairs
    assert [lg.rho_index for lg in rs.little_groups] == list(range(len(classes)))


@pytest.mark.parametrize("build", TWIST_SPECS)
def test_shift_phases_are_the_wave_characters(build):
    # rep_set reads every shift's phases from one roots-of-unity table over
    # m0; each row must be chi(spec, b / m0).phases bit for bit
    s = build()
    m0 = find_m0(s).m0
    sub = build_quotient(s, m0).tf_subgroup()
    shifts = grid_points(m0, s.d2)
    phases = dual._shift_phases(sub, shifts, m0)
    assert phases.shape == (m0 ** s.d2, sub.order)
    for b, row in zip(shifts.tolist(), phases):
        wave = chi(s, tuple(Fraction(x, m0) for x in b)).phases(sub)
        assert row.tobytes() == wave.tobytes(), b


@pytest.mark.parametrize("build", TWIST_SPECS)
def test_mackey_verdict_matches_the_stack_oracle(build):
    # the verdict from the stabilizer order that the wave orbit gives, against
    # the stacks, on every label; the induced stack's norm must be that order
    s = build()
    rs = rep_set(s)
    for N in (rs.m0, 2 * rs.m0):
        q = build_quotient(s, N)
        for idx, rho in enumerate(rs.classes):
            lifted = lift_representation(rho, q)
            ops = len(rs.little_groups[idx].p)
            for label in wave_orbits(s, rs, idx, N):
                twisted = scale_by_character(chi(s, label.k), lifted)
                norm = char_norm_sq(induce(q, twisted))
                assert (mackey_irreducible(norm, ops // label.orbit_size)
                        == stabilizer_oracle(q, twisted)), (N, label)


def test_little_group_p1():
    s = spec("p1")
    rs = rep_set(s)
    lg = rs.little_groups[0]
    assert lg.p.tolist() == [0]
    assert lg.b.tolist() == [[0, 0]]


def test_little_group_pg_trivial_class():
    s = spec("pg")
    rs = rep_set(s)
    lg = rs.little_groups[0]
    assert lg.p.tolist() == [0, 1]
    assert lg.b.tolist() == [[0, 0], [0, 0]]
    assert s.dual_points[1].tolist() == [[1, 0], [0, -1]]


def test_little_group_translation_sandwich_twist():
    s = spec("twistE8")
    rs = rep_set(s)
    assert rs.m0 == 2
    for idx in range(len(rs.classes)):
        lg = rs.little_groups[idx]
        # every shift s = b / m0 lies in L*/m0: b is an integer vector in [0, m0)^d2
        assert lg.b.dtype.kind == "i" and lg.b.shape == (len(lg.p), s.d2)
        assert ((0 <= lg.b) & (lg.b < rs.m0)).all()


def largest_little_group(name):
    s = spec(name)
    return max(rep_set(s).little_groups, key=lambda lg: len(lg.p))


def kept_operations(lg, keep):
    """The little group lg with only the operations where the mask keep holds."""
    return dual.LittleGroup(lg.spec, lg.rho_index, lg.m0, lg.p[keep], lg.b[keep])


def test_little_group_check_refuses_a_dropped_operation():
    # any 15 of a 16-element group are not closed: a b = g for the dropped g
    # and some kept a, b
    lg = largest_little_group("twistE8")
    assert len(lg.p) == 16
    dual._check_little_group(lg)
    for p in np.unique(lg.p):
        if p == lg.spec.p_identity:
            continue
        keep = np.ones(len(lg.p), dtype=bool)
        keep[np.flatnonzero(lg.p == p)[0]] = False      # p's first shift
        with pytest.raises(InternalInconsistency, match="little group is not closed"):
            dual._check_little_group(kept_operations(lg, keep))


def test_little_group_check_refuses_a_missing_identity_coset():
    lg = largest_little_group("twistE8")
    with pytest.raises(InternalInconsistency, match="misses the identity coset"):
        dual._check_little_group(kept_operations(lg, lg.p != lg.spec.p_identity))


def test_little_group_check_refuses_a_missing_dual_lattice():
    # drop (p_identity, 0) from a little group whose identity coset holds
    # another shift: the identity coset is still there, the lattice is not
    checked = 0
    for name in catalog.names():
        for lg in rep_set(spec(name)).little_groups:
            identity = lg.p == lg.spec.p_identity
            zero = identity & (lg.b == 0).all(axis=1)
            if identity.sum() < 2:
                continue
            assert zero.sum() == 1
            with pytest.raises(InternalInconsistency,
                               match="dual lattice does not embed in the little group"):
                dual._check_little_group(kept_operations(lg, ~zero))
            checked += 1
    assert checked


def test_null_set_examples():
    s = spec("pg")
    assert null_set_member(s, (Fraction(1, 3), Fraction(0)))
    assert not null_set_member(s, (Fraction(1, 3), Fraction(1, 3)))
    assert null_set_member(s, (0, 0))
    # denominators past 64-bit integers stay exact
    assert null_set_member(s, (Fraction(1, 3 * 10 ** 25), Fraction(0)))
    assert not null_set_member(s, (Fraction(1, 3 * 10 ** 25), Fraction(1, 10 ** 25 + 1)))
    # trivial point group: the quantifier is empty
    for name in ("p1", "screw-C4", "helix-C3-tf"):
        assert not null_set_member(spec(name), (Fraction(1, 7),) * spec(name).d2)
    # float variant agrees with the exact one near the grid
    assert null_set_member(s, (1 / 3, 0.0))
    assert not null_set_member(s, (1 / 3, 1 / 3))


def test_null_set_shift_relation(rng):
    # if D k - k' lies in L*/m0 the flags agree, and match a per-p Fraction loop
    for name in catalog.names():
        s = spec(name)
        m0 = find_m0(s).m0
        duals = [s.dual_points[i] for i in range(s.rot_order)]
        for _ in range(300):
            k = tuple(Fraction(int(rng.integers(-10, 11)), int(rng.integers(1, 9)))
                      for _ in range(s.d2))
            d = duals[int(rng.integers(len(duals)))]
            shift = tuple(Fraction(int(rng.integers(-4, 5)), m0)
                          for _ in range(s.d2))
            k2 = tuple(a - b for a, b in zip(pmat_vec(d, k), shift))
            assert null_set_member(s, k) == null_set_member(s, k2)
            assert null_set_member(s, k) == null_oracle(s, k)


def test_wave_orbits_p1():
    s = spec("p1")
    rs = rep_set(s)
    labels = wave_orbits(s, rs, 0, 4)
    assert len(labels) == 16
    assert all(l.orbit_size == 1 for l in labels)
    assert not any(l.in_null_set for l in labels)


def test_wave_orbits_pg_against_oracle():
    s = spec("pg")
    rs = rep_set(s)
    labels = wave_orbits(s, rs, 0, 3)
    assert len(labels) == 6
    singles = [l for l in labels if l.orbit_size == 1]
    pairs = [l for l in labels if l.orbit_size == 2]
    assert len(singles) == 3 and len(pairs) == 3
    assert all(l.in_null_set for l in singles)
    assert all(l.k[1] == 0 for l in singles)
    assert not any(l.in_null_set for l in pairs)
    # brute-force oracle over the grid
    lg = rs.little_groups[0]
    oracle = brute_orbits(k_shift_reps(s, 3), oracle_operations(s, lg))
    assert sorted(len(o) for o in oracle) == sorted(l.orbit_size for l in labels)
    assert {min(o) for o in oracle} == {l.k for l in labels}
    # every catalog group at m0 and 2 m0, and two finer grids
    cases = [(name, k * find_m0(spec(name)).m0) for name in catalog.names() for k in (1, 2)]
    for name, N in cases + [("twistE8", 4), ("twistE8-m4", 8)]:
        s = spec(name)
        rs = rep_set(s)
        for idx in range(len(rs.classes)):
            labels = wave_orbits(s, rs, idx, N)
            oracle = brute_orbits(k_shift_reps(s, N),
                                  oracle_operations(s, rs.little_groups[idx]))
            assert {min(o): len(o) for o in oracle} == {l.k: l.orbit_size for l in labels}
            assert all(l.in_null_set == null_oracle(s, l.k) for l in labels)


def test_orbit_sizes_partition_the_grid():
    for name, N in [("pg", 3), ("pm", 2), ("helix-C3", 3), ("twistE8", 2)]:
        s = spec(name)
        rs = rep_set(s)
        for idx in range(len(rs.classes)):
            labels = wave_orbits(s, rs, idx, N)
            assert sum(l.orbit_size for l in labels) == N ** s.d2


def test_enumerate_dual_pg():
    atlas = enumerate_dual(spec("pg"), 3)
    assert len(atlas.labels) == 6
    irr = [r for r in atlas.labels if r.irreducible]
    red = [r for r in atlas.labels if not r.irreducible]
    assert len(irr) == 3 and all(r.induced_dim == 2 for r in irr)
    assert len(red) == 3
    for r in red:
        assert r.label.in_null_set
        assert sorted(m for m in r.decomposition.values()) == [1, 1]
    assert atlas.census_dims == [1, 1, 1, 1, 1, 1, 2, 2, 2]
    assert all(atlas.checks.values())


def test_enumerate_dual_p1():
    atlas = enumerate_dual(spec("p1"), 4)
    assert len(atlas.labels) == 16
    assert all(r.irreducible and r.induced_dim == 1 for r in atlas.labels)
    assert all(atlas.checks.values())


def test_enumerate_dual_helix():
    s = spec("helix-C3")
    atlas = enumerate_dual(s, 1)
    rs = atlas.rep_set
    want = sum(len(wave_orbits(s, rs, i, 1)) for i in range(len(rs.classes)))
    assert len(atlas.labels) == want
    assert sum(d * d for d in atlas.census_dims) == 6
    assert all(atlas.checks.values())
    # a label inside the null set may still induce irreducibly
    assert any(r.label.in_null_set and r.irreducible for r in atlas.labels)


def test_enumerate_dual_twist():
    for N in (2, 4):
        atlas = enumerate_dual(spec("twistE8"), N)
        assert all(atlas.checks.values()), (N, atlas.checks)
        q = quotient("twistE8", N)
        assert sum(d * d for d in atlas.census_dims) == q.order


CATALOG_LEVELS = [(name, N) for name in catalog.names()
                  for m0 in [find_m0(spec(name)).m0] for N in (m0, 2 * m0)]


@pytest.mark.parametrize("name,N", CATALOG_LEVELS)
def test_atlas_irreps_match_the_solver(name, N):
    # the atlas builds the dual from its labels; the solver is the oracle.
    # twistE8 has m0 = 2, so its 2 m0 case is N = 4 (order 512)
    atlas = enumerate_dual(spec(name), N)
    oracle = irreps(quotient(name, N))
    assert [r.dim for r in atlas.irreps] == [r.dim for r in oracle]
    assert max(np.abs(a.char - b.char).max() for a, b in zip(atlas.irreps, oracle)) <= STRUCT_TOL
    assert atlas.census_dims == sorted(r.dim for r in oracle)
    assert all(atlas.checks.values())


@pytest.mark.parametrize("name,N", CATALOG_LEVELS)
def test_character_norms_are_the_stabilizer_orders(name, N):
    # Mackey's formula on every label: <Ind tau, Ind tau> is the order of
    # tau's stabilizer, read from the wave orbit by orbit-stabilizer
    s = spec(name)
    atlas = enumerate_dual(s, N)
    ops = [len(lg.p) for lg in atlas.rep_set.little_groups]
    for r in atlas.labels:
        stabilizer = ops[r.label.rho_index] // r.label.orbit_size
        assert abs(r.char_norm - stabilizer) <= STRUCT_TOL, (r.label, r.char_norm)
        assert r.irreducible == (stabilizer == 1)


def test_a_little_group_missing_an_operation_fails_loudly(monkeypatch):
    # without p_rep 1's operation, class 0's little group has 7 of its 8
    # members: its first label's orbit of 2 reads a stabilizer order of
    # 7 // 2 = 3 where its induced character's norm is 4
    original = dual.rep_set

    def short(spec, seed=0):
        rs = original(spec, seed=seed)
        rs.little_groups[0] = kept_operations(rs.little_groups[0], rs.little_groups[0].p != 1)
        return rs

    monkeypatch.setattr(dual, "rep_set", short)
    with pytest.raises(InternalInconsistency,
                       match="induced character norm .* differs from the stabilizer order 3"):
        enumerate_dual(catalog.CATALOG["twistE8"].build(), 2)


# DualAtlas.basis at seed 0, recorded while every label's stack was built eagerly;
# twistE8's were recorded again when reducible labels came to be split on TF
# blocks, as its constituents of dim 2 and 4 sit in eigenspaces whose bases
# depend on rounding
BASIS_FINGERPRINTS = {
    ("p1", 1): "aa3859d394eb3387ec4ecf6984e9a55c330d48b583dd7204e80a483e8989f5e3",
    ("p1", 2): "d24e4777886a310d411b5fa8d307e02974e4506b4bd6c17db83078f7e68498ad",
    ("pm", 1): "93b252ef406cfb6d9f66936f1aefa42ffa99e93336ffa53c21ba011d934bad39",
    ("pm", 2): "e37c38545c78efb97ce865fdf16a6f6c95f255f98c9a9b651899eb32b9edd495",
    ("pg", 1): "93b252ef406cfb6d9f66936f1aefa42ffa99e93336ffa53c21ba011d934bad39",
    ("pg", 2): "79bd03ab9f2d826e63a62e2f442273a7ce95c81433d8e74cfa7be521212cd113",
    ("screw-C4", 1): "7fce3c95c11b2eda0654a7e49e13cd9eef4b11b71f981f279739883b821eff55",
    ("screw-C4", 2): "ff776569cf60a1950f58334f8e12aaf7cbce372338a5f2ca9dfa39fa15bd2c66",
    ("helix-C3", 1): "3e844a829aed2b43f8ba08c4d3f44b94e9a97b19fe41e62113ae05de140c41be",
    ("helix-C3", 2): "647df18136df550f048338fdabf28ceff3145b93184caf842d716ae7f8913061",
    ("helix-C3-tf", 1): "ebfb59a512ab8b793da4cb56b76a2a6e0921e83259d313bbdd636353825d7945",
    ("helix-C3-tf", 2): "67344b53c9d002feb42bc97659e2de053208a488e8b6d26a33c8fee5e26f24ec",
    ("twistE8", 2): "3f39df1a2a45b06e569d4dce8e15e1a1f89cc77d8e612c783d112207756a2871",
    ("twistE8", 4): "32a559781b097dab51df7da251b2a1b74031a42e332b2bc90879c6b2fb6c7e90",
    ("twistE8-m4", 4): "95464456932e23414f0ef56cd3e28a9342da2c0e7625da7e58b004a35046deab",
    ("twistE8-m4", 8): "f05d112d8c773f45d2034f59d148c23144a339c9519efbdb81e5adcbac571caa",
}


def test_basis_fingerprints_are_pinned():
    assert sorted(BASIS_FINGERPRINTS) == sorted(CATALOG_LEVELS)
    for (name, N), digest in BASIS_FINGERPRINTS.items():
        assert enumerate_dual(catalog.CATALOG[name].build(), N).basis == digest, (name, N)


@pytest.mark.parametrize("name,N", CATALOG_LEVELS)
def test_lazy_irreps_are_the_eager_stacks(name, N):
    # the same irreducibles in the same order, bit for bit
    atlas = enumerate_dual(catalog.CATALOG[name].build(), N)
    want = eager_irreps_oracle(spec(name), N)
    assert [r.mats.tobytes() for r in atlas.irreps] == [m.tobytes() for m in want]


@pytest.mark.parametrize("name,N", CATALOG_LEVELS)
def test_dimension_stacks_are_contiguous_ranges_of_the_basis(name, N):
    # `irreducible_order` sorts by dim first, so the index lists of the
    # dimension stacks, taken in order, are the basis order itself; a
    # Fourier table's stacks rely on it
    atlas = enumerate_dual(spec(name), N)
    assert list(atlas.stacks) == sorted(atlas.stacks)
    assert [i for idx, _ in atlas.stacks.values() for i in idx] == list(range(len(atlas.dims)))


# sha256 of each reducible label's `split_induced` constituents, their
# tobytes() concatenated, in label order at seed 0: every bit of a split
# stack, where the atlas pins see generator images rounded or the oracle
# calls `split_induced` itself
SPLIT_DIGESTS = {
    ("twistE8", 4): [
        "2d314a63abf22321c1c8f00d21e7da306ee18b07beca3a54c79569c530b8661c",
        "d4532914afc868d82fcdfe818b89e8807ae03f80dccefc75e3ca1c0a722e0676",
        "2862735fdb10e10978d8195be124b8aaa3e36a675f62c73e4f05a6c275e4d8ee",
        "023e19e875fa8b74631d2d6f795d3d5cacecd195aba8b38b28508f495a6a9aac",
        "52d89b1c528330ae4ad7c02a48fbe780cef44adcdb2831afc8c36840e462d0f8",
        "2cfcb9c2965c31e62b9b9662cbf332e3c7db01712c597bab51bd31a4bbac5c2a",
        "ce9ba8da67719669f6962b53481b4eafc54a492ce6070971be1b289cfdecdf21",
        "4ff72ac595c2a746c467bc6ddf27490a47eb81814f7eefdd33f4f5125521fd77",
        "3a0a27582682a09ba7a5d5b35996d1ba326dc593dd7d5c2b874775998e1d64a9",
        "64eff5c83d275fc76c3d9a6f55521570ee7a7f9688de8e819aa75069ace2dadb",
        "3c2db1c61b661578681e021b351a45ea4fd03f198ab9808d23c8e73754e43a7f",
        "e7330516750d16e82e14e3d31fa0fbdd773ce259b25fccb2f4262280ae00140a",
        "fd41d85b9f36bec00375d4d7cdc4d61fbe87d7670ffe9777509c46f7a552777d",
        "307895d61dd98e004768ec29923926b80fa0babfdc5b8dad20727df87aa7fd48",
        "a1ce9ceccd3d70c7bc79ead08bcff24194deb166e01fe8f2395206dd6075681b",
        "b01f6bcc776b0d8a26cea17b249f354841d1d7d70681314f6ce88513afe3112d",
    ],
    ("pg", 6): [
        "6de75e3b3a52fdb584a8d9a3cd694bf50082e1ee72a10d77393a933bfab3f70a",
        "5f7345cf19a79178b18266210bf46eb901c7c88d983d994da07d57e6584f6e9c",
        "8852a77a1141a6414f28c0b3fe9c8c60405f97fc03b3baf6f4ea059e8c830b69",
        "a1fc119f15f837cb6439dfbb2f35a6e9bc1eea528868ee24def3b6e7e1a111a5",
        "19202e27661f239b729d2448c9711cde19e8932da529604aee7c2ff6cfcb8916",
        "6eeb922a183414be6910432f14ccd725664df593c6f8207c7718323559cc51fb",
        "74d33d43033247f4372f5f43cef5224eead4b5de7e2b8a3f3ac0467569168ef5",
        "964bc2946a50343c6af101fdee81836cf081fcd5afde89e93780fe72a63a7678",
        "d994cbfde3d112b1139ebebb65e3c0cc121e173fe49aa11f533eec19e3108edc",
        "b0b022c8cb79edbc9dd48daadf18cabc10646adc891eb94b5848277f47a6e835",
        "150bda710031446d4d0207eefdde231bfd26d405d840d89ea4a7dce1ed04d5cd",
        "ca227c9ec759abe16fcc754844fd5d649ef28bdd91ef2b993bf0ebb99fe092ea",
    ],
}


@pytest.mark.parametrize("name,N", SPLIT_DIGESTS)
def test_split_constituents_are_pinned(name, N):
    s, q = spec(name), quotient(name, N)
    rs = rep_set(s)
    digests = []
    for idx, rho in enumerate(rs.classes):
        ops = len(rs.little_groups[idx].p)
        phases = [chi(s, label.k).phases(q.tf_subgroup()) for label in wave_orbits(s, rs, idx, N)
                  if ops // label.orbit_size > 1]
        if not phases:
            continue
        # one call splits every reducible label of the class
        for pieces in split_induced(q, lift_representation(rho, q), np.array(phases)):
            digests.append(hashlib.sha256(b"".join(m.tobytes() for m in pieces)).hexdigest())
    assert digests == SPLIT_DIGESTS[name, N]


@pytest.mark.parametrize("name,N", [("twistE8", 4), ("pg", 12)])
def test_a_class_split_in_batches_is_the_split_in_one(monkeypatch, name, N):
    # a byte cap of 1 puts every label of a class in its own batch, and an
    # unbounded one all of them in one; the draws are per label, so every
    # stack keeps every bit
    s, q = spec(name), quotient(name, N)
    rs, calls, split_blocks = rep_set(s), [], reps._split_blocks
    monkeypatch.setattr(reps, "_split_blocks", lambda *args: calls.append(len(args[2]))
                        or split_blocks(*args))

    def split(rho, phases, cap):
        calls.clear()
        monkeypatch.setattr(reps, "SPLIT_BYTES", cap)
        return [[m.tobytes() for m in pieces] for pieces in split_induced(q, rho, phases)]

    for idx, rho in enumerate(rs.classes):
        ops = len(rs.little_groups[idx].p)
        phases = np.array([chi(s, label.k).phases(q.tf_subgroup())
                           for label in wave_orbits(s, rs, idx, N) if ops // label.orbit_size > 1])
        if len(phases) < 2:
            continue
        lifted = lift_representation(rho, q)
        whole = split(lifted, phases, 2**62)
        assert calls == [len(phases)]
        assert split(lifted, phases, 1) == whole
        assert calls == [1] * len(phases)


@pytest.mark.parametrize("name,N", [("twistE8", 4), ("twistE8-m4", 8), ("pg", 12)])
def test_the_label_pass_in_chunks_is_the_pass_in_one(monkeypatch, name, N):
    # a byte cap of 1 takes the labels' phases and characters one label at a time
    def summary(atlas):
        return ([(r.label, r.induced_dim, r.irreducible, r.char_norm, r.decomposition)
                 for r in atlas.labels], atlas.dims, atlas.checks, atlas.basis)

    whole = summary(enumerate_dual(catalog.CATALOG[name].build(), N))
    monkeypatch.setattr(dual, "GATHER_BYTES", 1)
    assert summary(enumerate_dual(catalog.CATALOG[name].build(), N)) == whole


def stack_chars(stacks):
    return np.array([np.einsum("gii->g", m) for m in stacks])


SPLIT_CASES = ([pytest.param(catalog.CATALOG[name].build, N, id=f"{name}-{N}")
                for name, N in CATALOG_LEVELS + [("twistE8", 6), ("pg", 12), ("helix-C3", 6)]]
               + [pytest.param(c5_quarter_spec, N, id=f"c5-quarter-{N}") for N in (1, 2)]
               + [pytest.param(s3_plane_spec, 6, id="s3-plane-6")])


@pytest.mark.parametrize("build,N", SPLIT_CASES)
def test_block_split_matches_the_dense_split(build, N):
    # split_induced works on TF blocks; the oracle splits the whole induced stack
    s = build()
    q, rs = build_quotient(s, N), rep_set(s)
    table = q.mult_table()
    gens = q.generators
    a, b = gens[:, None], gens[None, :]
    for idx, rho in enumerate(rs.classes):
        lifted = lift_representation(rho, q)
        for label in wave_orbits(s, rs, idx, N):
            wave = chi(s, label.k)
            ind = induce(q, scale_by_character(wave, lifted))
            if abs(char_norm_sq(ind) - 1) < STRUCT_TOL:
                continue
            new = next(split_induced(q, lifted, wave.phases(q.tf_subgroup())[None]))
            old = constituents(ind)
            new_chars, old_chars = stack_chars(new), stack_chars(old)
            cross = multiplicities(new_chars, old_chars)   # 1 iff equivalent
            assert (cross.sum(axis=1) == multiplicities(new_chars, new_chars).sum(axis=1)).all()
            assert (cross.sum(axis=0) == multiplicities(old_chars, old_chars).sum(axis=0)).all()
            match = cross.argmax(axis=1)
            assert [m.shape[1] for m in new] == [old[j].shape[1] for j in match], label
            assert np.abs(new_chars - old_chars[match]).max() <= STRUCT_TOL, label
            for m in new:
                assert np.abs(m.conj().swapaxes(1, 2) @ m - np.eye(m.shape[1])).max() < 1e-9
                assert np.abs(m[a] @ m[b] - m[table[a, b]]).max() < 1e-9


@pytest.mark.parametrize("name,N", [("twistE8", 4), ("pg", 12), ("helix-C3", 6),
                                    ("twistE8-m4", 8)])
def test_frobenius_characters_are_the_induced_stacks_characters(name, N):
    s, q = spec(name), quotient(name, N)
    rs, conj, tf = rep_set(s), q.coset_conjugation, list(q.tf_indices())
    for idx, rho in enumerate(rs.classes):
        lifted = lift_representation(rho, q)
        for label in wave_orbits(s, rs, idx, N):
            twisted = scale_by_character(chi(s, label.k), lifted)
            frobenius = np.zeros(q.order, dtype=complex)
            frobenius[tf] = induced_character(conj, twisted.char)
            assert np.abs(frobenius - induce(q, twisted).char).max() <= 1e-12, label


def test_only_null_set_labels_are_induced_before_irreps_are_read(monkeypatch):
    # no label is induced before the irreducibles are read: a reducible one
    # is split from its TF blocks, and an irreducible one is induced once
    # when they are read.  Every twistE8 label at N = 4 is reducible, so its
    # atlas induces nothing at all; two of helix-C3's four null-set labels at
    # N = 6 induce irreducibly, so they are induced, not split
    induced, split, induce_, split_ = [], [], dual.induce, dual.split_induced
    monkeypatch.setattr(dual, "induce", lambda q, r: induced.append(q) or induce_(q, r))
    # one call splits a whole class: count the labels split, its phase rows
    monkeypatch.setattr(dual, "split_induced", lambda q, rho, phases, seed:
                        split.extend(phases) or split_(q, rho, phases, seed))
    for name, N, reducible in [("twistE8-m4", 8, 0), ("pg", 12, 24), ("twistE8", 4, 16),
                               ("helix-C3", 6, 2)]:
        induced.clear()
        split.clear()
        atlas = enumerate_dual(catalog.CATALOG[name].build(), N)
        assert all(atlas.checks.values()), name
        assert sum(not r.irreducible for r in atlas.labels) == len(split) == reducible, name
        assert induced == [], name
        lazy = len(atlas.labels) - reducible
        assert len(atlas.basis) == 64 and len(induced) == lazy, name
        assert len(atlas.irreps) == len(atlas.census_dims) and len(induced) == lazy, name
        assert len(split) == reducible, name


@pytest.mark.parametrize("name,N", [("pg", 3), ("twistE8-m4", 8)])
def test_two_labels_sharing_an_irreducible_fail_loudly(monkeypatch, name, N):
    # duplicates are dropped within one label's constituents only; the
    # irreducibles' Gram catches one shared by two labels, on the null set
    # (pg's first label, k = 0) or off it (every twistE8-m4 label at N = 8)
    orbits = dual.wave_orbits

    def first_label_twice(*args):
        labels = orbits(*args)
        return labels[:1] + labels

    monkeypatch.setattr(dual, "wave_orbits", first_label_twice)
    with pytest.raises(InternalInconsistency, match="orthogonality"):
        enumerate_dual(catalog.CATALOG[name].build(), N)


@pytest.mark.parametrize("name", catalog.names())
def test_tf_slices_keep_m0_orders_and_census(name):
    # G mod T^N restricted to TF is the TF slice's own quotient
    s = spec(name)
    m0 = find_m0(s).m0
    tf = tf_slice(s)
    assert validate_spec(tf) == []
    assert find_m0(tf).m0 == m0
    for N in (m0, 2 * m0):
        assert build_quotient(tf, N).order == build_quotient(s, N).order // s.rot_order
        atlas = enumerate_dual(tf, N)
        assert all(atlas.checks.values())
        assert atlas.census_dims == sorted(r.dim for r in irreps(quotient(name, N).tf_subgroup()))


def rebased(s, U):
    """s on the lattice basis U e_1, ..., U e_d2 for a unimodular integer U:
    the lifts t(U e_j), with q blocks section_q(U[:, j]), and the p_reps
    (q, U^-1 P U, U^-1 tau)."""
    U = iso.int_matrix(U)
    U_inv, one = iso.pmat_inv(U), iso.identity_int_matrix(s.d2)
    lifts = [iso.Isometry(q, one, e) for q, e in zip(s.section_q(np.array(U).T), one)]
    p_reps = [iso.Isometry(p.q, iso.pmat_mul(iso.pmat_mul(U_inv, p.p), U),
                           pmat_vec(U_inv, p.tau)) for p in s.p_reps]
    return GroupSpec(s.name, s.d1, s.d2, s.f_elements, lifts, p_reps, tol=s.tol)


REBASINGS = [(name, U) for name in catalog.names()
             for U in ([[[-1]]] if spec(name).d2 == 1 else
                       [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]], [[1, -2], [0, -1]]])]


@pytest.mark.parametrize("name,U", REBASINGS)
def test_unimodular_rebasing_keeps_m0_orders_and_census(name, U):
    # the same group on another lattice basis
    s = spec(name)
    r = rebased(s, U)
    assert validate_spec(r) == []
    m0 = find_m0(s).m0
    assert find_m0(r).m0 == m0
    for N, want in catalog.CATALOG[name].expected["orders"].items():
        assert build_quotient(r, N).order == want
    for N in (m0, 2 * m0):
        atlas = enumerate_dual(r, N)
        assert all(atlas.checks.values())
        assert atlas.census_dims == enumerate_dual(s, N).census_dims


@settings(max_examples=8)
@given(seed=st.integers(0, 7))
def test_atlas_values_do_not_depend_on_the_seed(seed):
    for name, N in [("pg", 3), ("helix-C3", find_m0(spec("helix-C3")).m0)]:
        s = catalog.CATALOG[name].build()
        first, other = enumerate_dual(s, N, seed=0), enumerate_dual(s, N, seed=seed)
        assert other.census_dims == first.census_dims
        assert [r.decomposition for r in other.labels] == [r.decomposition for r in first.labels]


def test_labels_give_inequivalent_induced_reps():
    # bijectivity at finite level, rechecked with actual characters
    s = spec("pg")
    rs = rep_set(s)
    q = quotient("pg", 3)
    reps = []
    for idx, rho in enumerate(rs.classes):
        lifted = lift_representation(rho, q)
        for label in wave_orbits(s, rs, idx, 3):
            reps.append(induce(q, scale_by_character(chi(s, label.k), lifted)))
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not equivalent(reps[i], reps[j])


def test_atlas_surjectivity_onto_induced_duals(rng):
    # any induced rep of a random wave character lands on an emitted label
    s = spec("pg")
    N = 3
    atlas = enumerate_dual(s, N)
    q = quotient("pg", N)
    decomps = [tuple(sorted(r.decomposition.items())) for r in atlas.labels]
    from euciso.reps import multiplicity
    irr = irreps(q)
    for _ in range(6):
        k = tuple(Fraction(int(rng.integers(0, N)), N) for _ in range(2))
        ind = induce(q, chi(s, k).on(q))
        key = tuple(sorted((j, multiplicity(ind, sigma))
                           for j, sigma in enumerate(irr)
                           if multiplicity(ind, sigma)))
        assert key in decomps


def test_subrep_cover_matches_frobenius_reciprocity():
    # <Ind tau, sigma> = <tau, Res sigma>, restricted element by element
    for name, N in [("pg", 3), ("twistE8", 2)]:
        s = spec(name)
        atlas = enumerate_dual(s, N)
        assert atlas.checks["subrep_cover"]
        q = quotient(name, N)
        irr = irreps(q)
        tf = q.tf_indices()
        rs = atlas.rep_set
        labels = [(rho, label) for idx, rho in enumerate(rs.classes)
                  for label in wave_orbits(s, rs, idx, N)]
        assert len(labels) == len(atlas.labels)
        for (rho, label), report in zip(labels, atlas.labels):
            assert report.label == label
            tau = scale_by_character(chi(s, label.k), lift_representation(rho, q))
            recip = {}
            for j, sigma in enumerate(irr):
                m = sum(np.trace(tau.matrix(h)) * np.conj(np.trace(sigma.matrix(h)))
                        for h in tf) / len(tf)
                if round(m.real):
                    recip[j] = round(m.real)
            assert recip == report.decomposition
