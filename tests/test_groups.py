import itertools
import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from euciso import catalog, groups
from euciso import isometry as iso
from euciso.errors import BadModulus, CapExceeded, InternalInconsistency, NotAMember
from euciso.groups import (GroupSpec, NormalForm, _divisors, automorphism_count,
                           build_quotient, find_m0, grid_place, grid_points, is_power_normal,
                           normal_form, normal_forms, normal_forms_of, tf_slice, validate_spec)
from euciso.isometry import Isometry, rotation2

from conftest import (c5_quarter_spec, collection_oracle, compose_all, cyclic, inverse,
                      is_member, mult_table_oracle, power, q_equal, quotient, reconstruct,
                      rod_spec, rotations_of_cube, s3_plane_spec, s4_plane_spec, section,
                      section_q_oracle, spec, time_limit, translation_isometry,
                      validate_spec_oracle)


def form(q, i):
    """The normal form of one id, read from `QuotientGroup.parts`."""
    n, f, p = q.parts(i)
    return NormalForm(tuple(n.tolist()), int(f), int(p))


# -- oracle: independent membership and normality test -------------------------

def oracle_section_power_set(s, m, span):
    """All m-th section powers with exponents in a window, as isometries."""
    out = []
    for v in itertools.product(range(-span, span + 1), repeat=s.d2):
        out.append(power(section(s, v), m))
    return out


def oracle_is_power_normal(s, m, span=2):
    """Brute-force closure and normality over an exponent window."""
    pool = oracle_section_power_set(s, m, 3 * span)

    def member(x):
        return any(iso.approx_equal(x, y, s.tol) for y in pool)

    window = list(itertools.product(range(-span, span + 1), repeat=s.d2))
    powers = {v: power(section(s, v), m) for v in window}
    for a in window:
        for b in window:
            if not member(iso.compose(powers[a], powers[b])):
                return False
    for g in s.generators():
        gi = inverse(g)
        for a in window:
            if not member(iso.compose(iso.compose(g, powers[a]), gi)):
                return False
    return True


def test_validate_catalog_specs():
    for name in catalog.names():
        assert validate_spec(catalog.get(name)) == []


def test_validation_catches_broken_kernel():
    # helix-C3 with one kernel element removed is no longer closed
    h = spec("helix-C3")
    broken = GroupSpec("broken", h.d1, h.d2, h.f_elements[:2], h.t_lifts,
                       h.p_reps, tol=h.tol)
    codes = {v.code for v in validate_spec(broken)}
    assert "f-closed" in codes


def oracle_kernel_violations(s):
    """The f-closed, f-inverse and f-distinct checks, one f_index call per pair."""
    out = []
    for i, a in enumerate(s.f_elements):
        for j, b in enumerate(s.f_elements):
            if s.f_index(a @ b) is None:
                out.append(("f-closed", f"F not closed: F[{i}]*F[{j}] missing"))
        if s.f_index(a.T) is None:
            out.append(("f-inverse", f"F not closed under inverse at F[{i}]"))
    for i, a in enumerate(s.f_elements):
        for j, b in enumerate(s.f_elements):
            if i < j and q_equal(a, b, s.tol):
                out.append(("f-distinct", f"F[{i}] and F[{j}] coincide"))
    return out


def test_kernel_checks_match_pairwise_oracle():
    for name in ("helix-C3", "screw-C4", "twistE8"):
        h = spec(name)
        f = h.f_elements
        kernels = [f, f[:-1], f[1:], f + [f[-1]], f + [f[0] + 1e-12], f[:1] * 3,
                   [x @ iso.block_diag(np.eye(h.d1 - 2), rotation2(0.3)) for x in f],
                   f + [-np.eye(h.d1)]]
        for kernel in kernels:
            broken = GroupSpec("broken", h.d1, h.d2, kernel, h.t_lifts, h.p_reps, tol=h.tol)
            got = [(v.code, v.message) for v in validate_spec(broken)
                   if v.code in ("f-closed", "f-inverse", "f-distinct")]
            assert got == oracle_kernel_violations(broken), (name, len(kernel))
            assert validate_spec(broken) == validate_spec_oracle(broken), (name, len(kernel))


def oracle_conjugation_violations(s):
    """f-normal, t-commutator, p-closure and p-conjugation, one isometry product at a time."""
    out, ident = [], iso.identity_int_matrix(s.d2)
    for tag, g in [("t", t) for t in s.t_lifts] + [("p", p) for p in s.p_reps]:
        for i in range(s.f_order):
            conj = compose_all([g, s.f_iso(i), inverse(g)])
            if s.f_index(conj.q) is None or conj.p != ident or any(conj.tau):
                out.append(("f-normal", f"conjugate of F[{i}] by a {tag}-generator left F"))
    for i, j in itertools.combinations(range(s.d2), 2):
        gi, gj = s.t_lifts[i], s.t_lifts[j]
        comm = compose_all([gi, gj, inverse(gi), inverse(gj)])
        if comm.p != ident or any(comm.tau):
            out.append(("t-commutator", f"[g{i+1}, g{j+1}] has a nontrivial (p, tau) block"))
        elif s.f_index(comm.q) is None:
            out.append(("t-commutator", f"[g{i+1}, g{j+1}] q block lies outside F"))
    for a in s.p_reps:
        for b in s.p_reps:
            if not is_member(s, iso.compose(a, b)):
                out.append(("p-closure", "product of p_reps has no normal form"))
        for t in s.t_lifts:
            if not is_member(s, compose_all([a, t, inverse(a)])):
                out.append(("p-conjugation",
                            "conjugate of a t_lift by a p_rep has no normal form"))
    return list(dict.fromkeys(out))


def test_conjugation_checks_match_scalar_oracle():
    # a 0.3 rad turn in the plane of the first and last axes, applied to one
    # t_lift or one p_rep q block, moves F, the commutators and the presentation.
    # twistE8-m4's only p_rep is its identity coset, which must stay the
    # identity: tilted, it is refused before any conjugation check
    codes = set()
    for name in ("twistE8", "twistE8-m4"):
        h = spec(name)
        turn = np.eye(h.d1)
        turn[np.ix_([0, -1], [0, -1])] = rotation2(0.3)
        t_tilted = [h.t_lifts[0], Isometry(h.t_lifts[1].q @ turn, h.t_lifts[1].p,
                                           h.t_lifts[1].tau)]
        p_tilted = h.p_reps[:-1] + [Isometry(h.p_reps[-1].q @ turn, h.p_reps[-1].p,
                                             h.p_reps[-1].tau)]
        for t_lifts, p_reps in [(h.t_lifts, h.p_reps), (t_tilted, h.p_reps),
                                (h.t_lifts, p_tilted)]:
            s = GroupSpec("tilted", h.d1, h.d2, h.f_elements, t_lifts, p_reps, tol=h.tol)
            got = [(v.code, v.message) for v in validate_spec(s)]
            assert validate_spec(s) == validate_spec_oracle(s), name
            if p_reps is p_tilted and h.rot_order == 1:
                assert [code for code, _ in got] == ["p-identity"]
                continue
            assert got == oracle_conjugation_violations(s), name
            codes |= {code for code, _ in got}
    assert codes == {"f-normal", "t-commutator", "p-closure", "p-conjugation"}


def violations(s):
    """validate_spec's (code, message) list, checked equal to the per-element oracle's."""
    got = [(v.code, v.message) for v in validate_spec(s)]
    assert got == [(v.code, v.message) for v in validate_spec_oracle(s)]
    return got


def test_validate_spec_matches_the_oracle_on_valid_specs():
    for name in catalog.names():
        assert violations(spec(name)) == [], name
    for k in range(1, 17):
        for flip in (False, True):
            assert violations(rod_spec(k, flip, 1.3)) == [], (k, flip)


def test_f_matches_are_the_per_element_matches():
    h = spec("helix-C3")
    specs = ([spec(name) for name in catalog.names()]
             + [rod_spec(k, flip, 0.9) for k in (1, 6, 10) for flip in (False, True)]
             + [GroupSpec("broken", h.d1, h.d2, kernel, h.t_lifts, h.p_reps)
                for kernel in (h.f_elements[:2], h.f_elements[1:], [])])
    for s in specs:
        def index(q):
            i = s.f_index(q)
            return -1 if i is None else i
        ident, table, inverse = s.f_matches
        assert ident == index(np.eye(s.d1)), s.name
        assert table.tolist() == [[index(a @ b) for b in s.f_elements] for a in s.f_elements]
        assert inverse.tolist() == [index(a.T) for a in s.f_elements]
        if ident >= 0 and (table >= 0).all():
            assert s.f_mul_table() == table.tolist() and s.f_identity == ident


def replaced(s, **parts):
    """s with some of its f_elements, t_lifts and p_reps lists replaced."""
    lists = {"f_elements": s.f_elements, "t_lifts": s.t_lifts, "p_reps": s.p_reps, **parts}
    return GroupSpec("broken", s.d1, s.d2, lists["f_elements"], lists["t_lifts"],
                     lists["p_reps"], tol=s.tol)


def test_validate_spec_keeps_the_order_of_raw_data_violations():
    h, t, pm = spec("helix-C3"), spec("twistE8"), spec("pm")
    one, e1 = iso.identity_int_matrix(2), (Fraction(1), Fraction(0))
    stretched = 2 * np.eye(h.d1)
    cases = [
        # a non-orthogonal F element, then one of the wrong shape
        (replaced(h, f_elements=h.f_elements[:1] + [stretched, np.eye(3)] + h.f_elements[1:]),
         [("f-orthogonal", "F[1] is not orthogonal within tol"),
          ("f-shape", "F[2] has shape (3, 3)")]),
        # a non-orthogonal t_lift 0, then a t_lift 1 of the wrong dims
        (replaced(t, t_lifts=[Isometry(2 * t.t_lifts[0].q, one, e1),
                              Isometry(np.eye(t.d1 + 1), one, (0, 1))]),
         [("t-orthogonal", "t_lifts[0] q block not orthogonal"),
          ("t-dims", "t_lifts[1] has wrong block dims")]),
        # a wrong point part on t_lift 0 and a wrong tau on t_lift 1
        (replaced(t, t_lifts=[Isometry(t.t_lifts[0].q, ((1, 1), (0, 1)), e1),
                              Isometry(t.t_lifts[1].q, one, (0, 2))]),
         [("t-point", "t_lifts[0] point part is not the identity"),
          ("t-tau", "t_lifts[1] tau is (Fraction(0, 1), Fraction(2, 1)), expected e_2")]),
        # a p_rep of determinant 2 ends the list before the shear's p-order
        (replaced(pm, p_reps=[pm.p_reps[0], Isometry(pm.p_reps[1].q, ((-1, 0), (0, 1)), (0, 0)),
                              Isometry(np.zeros((0, 0)), ((2, 0), (0, 1)), (0, 0)),
                              Isometry(np.zeros((0, 0)), ((1, 1), (0, 1)), (0, 0))]),
         [("p-det", "p_reps[2] determinant 2")]),
        # a non-orthogonal p_rep, then one of determinant 2
        (replaced(h, p_reps=[h.p_reps[0], Isometry(2 * h.p_reps[1].q, h.p_reps[1].p, (0,)),
                             Isometry(np.eye(h.d1), ((2,),), (0,))]),
         [("p-orthogonal", "p_reps[1] q block not orthogonal"),
          ("p-det", "p_reps[2] determinant 2")]),
        # duplicate point parts
        (replaced(pm, p_reps=pm.p_reps + [pm.p_reps[1]]),
         [("p-distinct", "p_reps point parts are not pairwise distinct")]),
        # a quarter turn alone: its square and its inverse are missing
        (replaced(pm, p_reps=[pm.p_reps[0], Isometry(np.zeros((0, 0)), ((0, -1), (1, 0)),
                                                     (0, 0))]),
         [("p-group", "point parts not closed under products"),
          ("p-group", "point parts not closed under inverse")]),
        # two reflections without their product
        (replaced(pm, p_reps=[pm.p_reps[0], Isometry(np.zeros((0, 0)), ((-1, 0), (0, 1)), (0, 0)),
                              Isometry(np.zeros((0, 0)), ((1, 0), (0, -1)), (0, 0))]),
         [("p-group", "point parts not closed under products")]),
    ]
    for s, want in cases:
        assert violations(s) == want


def test_point_parts_and_translations_past_int64_are_violations():
    # each loaded and passed every raw check, then crashed in GroupSpec.points
    p1, pg = spec("p1"), spec("pg")
    big = 2 ** 70
    shifted = replaced(p1, p_reps=[Isometry(np.zeros((0, 0)), p1.p_reps[0].p, (big, 0))])
    sheared = replaced(pg, p_reps=[pg.p_reps[0], Isometry(pg.p_reps[1].q, ((1, big), (0, -1)),
                                                          pg.p_reps[1].tau)])
    # p1's one p_rep is its identity coset, so a translation there is refused too
    assert validate_spec(shifted) == [groups.Violation(
        "p-identity", "p_reps[0] has the identity point part but is not the identity"),
        groups.Violation("p-range", "p_reps[0] has a point part entry, or a translation over "
                         "the denominator 1, past int64")]
    assert [v.code for v in validate_spec(sheared)] == ["p-range"]
    edge = replaced(p1, p_reps=[Isometry(np.zeros((0, 0)), p1.p_reps[0].p, (0, 2 ** 63))])
    assert [v.code for v in validate_spec(edge)] == ["p-identity", "p-range"]


def test_validation_catches_bad_point_part():
    h = spec("pm")
    shear = Isometry(np.zeros((0, 0)), ((1, 1), (0, 1)), (0, 0))
    broken = GroupSpec("broken", 0, 2, h.f_elements, h.t_lifts,
                       h.p_reps + [shear])
    codes = {v.code for v in validate_spec(broken)}
    assert "p-order" in codes or "p-group" in codes


def test_point_tables_match_the_point_parts():
    for name in catalog.names():
        s = spec(name)
        p_mul = s.p_mul_table()
        for a, pa in enumerate(s.p_reps):
            assert s.dual_points[a].tolist() == [list(r) for r in zip(*iso.pmat_inv(pa.p))]
            for b, pb in enumerate(s.p_reps):
                assert s.p_reps[p_mul[a, b]].p == iso.pmat_mul(pa.p, pb.p)


def test_point_table_refuses_unclosed_point_parts():
    # a quarter turn without its square and cube
    h = spec("p1")
    quarter = Isometry(np.zeros((0, 0)), ((0, -1), (1, 0)), (0, 0))
    broken = GroupSpec("broken", 0, 2, h.f_elements, h.t_lifts, h.p_reps + [quarter])
    with pytest.raises(InternalInconsistency):
        broken.p_mul_table()


def test_normal_form_identity():
    s = spec("pg")
    nf = normal_form(s, iso.identity_isometry(0, 2))
    assert nf == NormalForm((0, 0), 0, 0)


def test_normal_form_glide_squared():
    s = spec("pg")
    glide = s.p_reps[1]
    nf = normal_form(s, iso.compose(glide, glide))
    assert nf == NormalForm((1, 0), 0, 0)


def test_normal_form_twist_commutator_witness():
    # twisted lifts t1' = g1*phi, t2' = g2 have commutator phi^2
    s = spec("twistE8")
    t1p = iso.compose(section(s, (1, 0)), s.f_iso(1))
    t2p = section(s, (0, 1))
    comm = compose_all([t1p, t2p, inverse(t1p), inverse(t2p)])
    nf = normal_form(s, comm)
    assert nf == NormalForm((0, 0), 2, s.p_identity)
    want = iso.block_diag(np.eye(4), rotation2(math.pi))
    assert np.abs(s.f_elements[2] - want).max() < 1e-12


def test_normal_form_m4_commutator_witness():
    s = spec("twistE8-m4")
    g1, g2 = section(s, (1, 0)), section(s, (0, 1))
    comm = compose_all([g1, g2, inverse(g1), inverse(g2)])
    assert normal_form(s, comm) == NormalForm((0, 0), 1, 0)


def test_normal_form_rejects_outsiders():
    s = spec("pg")
    with pytest.raises(NotAMember):
        normal_form(s, translation_isometry(0, (Fraction(1, 3), 0)))
    rot = Isometry(np.zeros((0, 0)), ((0, -1), (1, 0)), (0, 0))
    with pytest.raises(NotAMember):
        normal_form(s, rot)
    helix = spec("helix-C3")
    alien = Isometry(rotation2(0.123), ((1,),), (0,))
    with pytest.raises(NotAMember):
        normal_form(helix, alien)


def test_power_section_examples():
    p1 = spec("p1")
    assert section(p1, (0, 0)).tau == (Fraction(0), Fraction(0))
    assert section(p1, (2, 3)).tau == (Fraction(2), Fraction(3))
    helix = spec("helix-C3")
    t5 = section(helix, (5,))
    assert t5.tau == (Fraction(5),)
    assert np.abs(t5.q - rotation2(5.0)).max() < 1e-12


def test_is_power_normal_examples():
    assert is_power_normal(spec("p1"), 1)
    assert not is_power_normal(spec("twistE8"), 1)
    assert is_power_normal(spec("twistE8"), 2)
    assert not is_power_normal(spec("twistE8-m4"), 1)
    assert not is_power_normal(spec("twistE8-m4"), 2)
    assert is_power_normal(spec("twistE8-m4"), 4)


def test_is_power_normal_matches_oracle():
    cases = [("p1", [1, 2]), ("pg", [1, 2]), ("helix-C3", [1, 2]),
             ("screw-C4", [1, 3]), ("twistE8", [1, 2, 3, 4]),
             ("twistE8-m4", [1, 2, 4])]
    cases = [(spec(name), ms) for name, ms in cases]
    cases += [(rod_spec(k, flip, 1.3), [1, 2, 3, k]) for k in range(3, 7) for flip in (False, True)]
    for s, ms in cases:
        for m in ms:
            assert is_power_normal(s, m) == oracle_is_power_normal(s, m), (s.name, m)


def test_is_power_normal_conjugates_by_generators_of_f():
    # the oracle conjugates by every element of F, is_power_normal by a
    # generating set.  On the rods F commutes with the screw; the Klein four
    # kernel of diagonal sign changes does not commute with the screw that
    # cycles the axes, so T and T^2 are not normal and m0 = 3
    cases = [rod_spec(k, flip, 1.3) for k, flip in [(4, False), (6, True), (8, True)]]
    klein = [np.diag(d) for d in ([1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1])]
    cycle = np.roll(np.eye(3), 1, axis=0)
    screw = GroupSpec("klein-screw", 3, 1, klein, [Isometry(cycle, ((1,),), (1,))],
                      [iso.identity_isometry(3, 1)])
    assert validate_spec(screw) == [] and find_m0(screw).m0 == 3
    for s in cases + [screw]:
        for m in (1, 2, 3, s.f_order):
            assert is_power_normal(s, m) == oracle_is_power_normal(s, m), (s.name, m)


def test_find_m0_matches_divisor_scan_oracle():
    for name in catalog.names():
        s = spec(name)
        report = find_m0(s)
        bound = s.f_order ** 2 * automorphism_count(s)
        oracle = next(m for m in range(1, bound + 1)
                      if bound % m == 0 and oracle_is_power_normal(s, m))
        assert report.m0 == oracle, name
        assert report.m0 == catalog.CATALOG[name].expected["m0"]
        assert bound % report.m0 == 0
        assert report.m0_bound == bound


def test_divisors_match_trial_division():
    # 16^2 * |GL(4, 2)| is m0_bound for the 16 diagonal sign matrices in O(4)
    for n in [*range(1, 3001), 16 ** 2 * 20160]:
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_good_exponents_form_a_ladder():
    for name in ("pg", "twistE8", "twistE8-m4"):
        s = spec(name)
        m0 = find_m0(s).m0
        for k in (1, 2, 3):
            assert is_power_normal(s, k * m0), (name, k)


def test_automorphism_counts():
    assert automorphism_count(spec("p1")) == 1          # trivial group
    assert automorphism_count(spec("screw-C4")) == 1    # Z2
    assert automorphism_count(spec("helix-C3")) == 2    # Z3
    assert automorphism_count(spec("twistE8")) == 2     # Z4


# -- oracle: |Aut(F)| over every permutation of F ------------------------------

def oracle_automorphism_count(s):
    """Count the multiplication-table-preserving bijections of F, all |F|! tried."""
    n, mul, ident = s.f_order, s.f_mul_table(), s.f_identity
    orders = []
    for i in range(n):
        k, x = 1, i
        while x != ident:
            x = mul[x][i]
            k += 1
        orders.append(k)
    count = 0
    for perm in itertools.permutations(range(n)):
        if perm[ident] != ident or any(orders[perm[i]] != orders[i] for i in range(n)):
            continue
        if all(perm[mul[a][b]] == mul[perm[a]][perm[b]]
               for a in range(n) for b in range(n)):
            count += 1
    return count


def euler_phi(k):
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def dihedral(n):
    return cyclic(n) + [r @ np.diag([1.0, -1.0]) for r in cyclic(n)]


def affine_mod7():
    """x -> 2^l x + k on Z/7 as permutation matrices: C7 x| C3, order 21."""
    out = []
    for l, k in itertools.product(range(3), range(7)):
        m = np.zeros((7, 7))
        m[[(2 ** l * x + k) % 7 for x in range(7)], range(7)] = 1.0
        out.append(m)
    return out


def kernel_spec(name, blocks):
    """A rod with an untwisted lift over the kernel `blocks`."""
    d1 = len(blocks[0])
    return GroupSpec(name, d1, 1, blocks, [Isometry(np.eye(d1), ((1,),), (1,))],
                     [iso.identity_isometry(d1, 1)])


def test_automorphism_count_matches_brute_force_oracle():
    cases = [spec(name) for name in catalog.names()]
    cases += [kernel_spec(f"C{k}", cyclic(k)) for k in range(1, 10)]
    cases += [kernel_spec(f"D{n}", dihedral(n)) for n in (2, 3, 4)]
    for s in cases:
        assert automorphism_count(s) == oracle_automorphism_count(s), s.name


def test_automorphism_count_of_cyclic_and_dihedral_kernels():
    for k in range(1, 17):
        assert automorphism_count(kernel_spec(f"C{k}", cyclic(k))) == euler_phi(k), k
    for n in range(3, 13):
        assert automorphism_count(kernel_spec(f"D{n}", dihedral(n))) == n * euler_phi(n), n


def test_automorphism_count_of_larger_non_abelian_kernels():
    # Aut(A4) = Aut(S4) = S4 and Aut(C7 x| C3) = C7 x| C6.  On C7 x| C3 the
    # injectivity test alone would pass 84 maps: half of them are not
    # homomorphisms.
    assert automorphism_count(kernel_spec("A4", rotations_of_cube(True))) == 24
    assert automorphism_count(kernel_spec("S4", rotations_of_cube(False))) == 24
    assert automorphism_count(kernel_spec("F21", affine_mod7())) == 42


@settings(max_examples=5)
@given(alpha=st.floats(0.1, 3.0))
def test_rod_specs_validate_and_bound_m0(alpha):
    for k in range(1, 17):
        for flip in (False, True):
            s = rod_spec(k, flip, alpha)
            assert validate_spec(s) == [], (k, flip)
            report = find_m0(s)
            assert report.m0_bound == k * k * euler_phi(k), (k, flip)
            assert report.m0_bound % report.m0 == 0


QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])     # its powers are exact in floats
FAR = 2 ** 40


def far_identity_coset(s, shift):
    """s with its identity p_rep moved to t(shift e_1), whose q block is section_q's."""
    one = s.p_reps[s.p_identity]
    q = s.section_q(shift * np.eye(1, s.d2, dtype=np.int64))[0]
    far = Isometry(q, one.p, (shift,) + (0,) * (s.d2 - 1))
    return GroupSpec(s.name, s.d1, s.d2, s.f_elements, s.t_lifts,
                     [far if i == s.p_identity else p for i, p in enumerate(s.p_reps)], s.tol)


def quarter_screw_rod(flip):
    """A C6 screw rod whose lift turns by a quarter, with an exact q block."""
    p_reps = [iso.identity_isometry(2, 1)]
    if flip:
        p_reps.append(Isometry(np.diag([1.0, -1.0]), ((-1,),), (0,)))
    return GroupSpec("rod-C6-quarter", 2, 1, cyclic(6),
                     [Isometry(QUARTER_TURN, ((1,),), (1,))], p_reps)


@pytest.mark.parametrize("build", [lambda: spec("p1"), lambda: quarter_screw_rod(False),
                                   lambda: quarter_screw_rod(True)],
                         ids=["p1", "rod-C6", "rod-C6-flip"])
def test_a_far_identity_coset_translation_validates_quickly(build):
    # a section power past POWER_BOUND is formed by squaring: 2^40 took
    # longer than any timeout when every power up to it was built.  The
    # identity coset moved to t(2^40) is not the identity, which the
    # quotient takes it to be, so validation refuses it
    s = build()
    with time_limit(2):
        far = far_identity_coset(s, FAR)
        assert [v.code for v in validate_spec(far)] == ["p-identity"]


def test_section_q_is_the_power_chain_inside_the_bound(rng):
    # inside POWER_BOUND, section_q reads the power stacks bit for bit as a
    # chain from the identity does; a column past it is formed by squaring,
    # which is exact for a quarter turn, |INT64_MIN| included
    for s in [spec(name) for name in catalog.names()] + [rod_spec(7, True, 0.7)]:
        for n in (grid_points(7, s.d2) - 3,
                  rng.integers(-groups.POWER_BOUND, groups.POWER_BOUND + 1, size=(40, s.d2))):
            assert s.section_q(n).tobytes() == section_q_oracle(s, n).tobytes()
    s = quarter_screw_rod(True)
    n = np.array([[groups.POWER_BOUND + 1], [-FAR - 3], [FAR + 2], [-2 ** 63], [5]])
    want = np.array([np.linalg.matrix_power(QUARTER_TURN, int(k) % 4) for k in n[:, 0]])
    assert np.array_equal(s.section_q(n), want)


def test_quotient_orders_match_formula():
    for name in catalog.names():
        s = spec(name)
        for N, want in catalog.CATALOG[name].expected["orders"].items():
            q = build_quotient(s, N)
            assert q.order == want
            assert q.order == N ** s.d2 * s.f_order * s.rot_order


def test_quotient_rejects_bad_modulus():
    with pytest.raises(BadModulus):
        build_quotient(spec("twistE8"), 3)
    with pytest.raises(BadModulus):
        build_quotient(spec("twistE8-m4"), 2)



# -- the id codec, against the listed normal forms -----------------------------

def oracle_normal_forms(s, N):
    """Every normal form t(n)*f*p of G mod T^N, listed in id order."""
    return [NormalForm(n, f, p) for n in itertools.product(range(N), repeat=s.d2)
            for f in range(s.f_order) for p in range(s.rot_order)]


def with_lists_reversed(s):
    """s with F and the p_reps listed backwards, their identities away from index 0."""
    return GroupSpec(s.name, s.d1, s.d2, s.f_elements[::-1], s.t_lifts, s.p_reps[::-1])


CODEC_CASES = ([(name, k, False) for name in catalog.names() for k in (1, 2, 3)]
               + [("twistE8", 3, False), ("helix-C3", 2, True), ("twistE8", 1, True)])


@pytest.mark.parametrize("name,k,reversed_lists", CODEC_CASES)
def test_codec_matches_listed_normal_forms(name, k, reversed_lists):
    s = spec(name)
    if reversed_lists:
        s = with_lists_reversed(s)
    m0 = catalog.CATALOG[name].expected["m0"]
    N = k * m0
    q = build_quotient(s, N)
    listed = oracle_normal_forms(s, N)
    index = {nf: i for i, nf in enumerate(listed)}
    assert q.order == len(listed)
    n, f, p = q.parts(q.elements)
    assert list(map(NormalForm, map(tuple, n.tolist()), f.tolist(), p.tolist())) == listed
    assert q.identity == index[NormalForm((0,) * s.d2, s.f_identity, s.p_identity)]
    # exponents below 0 and at or above N reduce mod N
    shifts = np.random.default_rng(N).integers(-3, 4, n.shape) * N
    assert (q.ids(n + shifts, f, p) == np.arange(q.order)).all()
    assert list(q.tf_indices()) == [i for i, nf in enumerate(listed) if nf.p == s.p_identity]
    coarse = build_quotient(s, m0)
    coarse_index = {nf: i for i, nf in enumerate(oracle_normal_forms(s, m0))}
    assert q.projection(coarse).tolist() == [
        coarse_index[NormalForm(tuple(x % m0 for x in nf.n), nf.f, nf.p)] for nf in listed]
    unit = [tuple(int(i == j) % N for j in range(s.d2)) for i in range(s.d2)]
    zero = (0,) * s.d2
    assert q.generators.tolist() == (
        [index[NormalForm(e, s.f_identity, s.p_identity)] for e in unit]
        + [index[NormalForm(zero, k, s.p_identity)] for k in range(s.f_order)]
        + [index[NormalForm(zero, s.f_identity, k)] for k in range(s.rot_order)])


COSET_CASES = ([pytest.param(lambda name=name: spec(name), k, id=f"{name}-{k}m0")
                 for name in catalog.names() for k in (1, 2)]
               + [pytest.param(lambda k=k, flip=flip: rod_spec(k, flip, 1.2345), 1,
                               id=f"rod-C{k}{'-flip' if flip else ''}")
                  for k in range(6, 11) for flip in (False, True)]
               + [pytest.param(lambda: with_lists_reversed(spec("twistE8")), 1,
                               id="twistE8-reversed")])


@pytest.mark.parametrize("build,k", COSET_CASES)
def test_coset_data_reads_the_id_layout(build, k):
    # x*h_p has id (TF row of x) * |P| + p: the split reads it from the
    # layout, with no table gather
    s = build()
    q = build_quotient(s, k * find_m0(s).m0)
    r, tf = s.rot_order, np.array(q.tf_indices())
    reps = q.coset_reps
    assert np.array_equal(reps, q.ids(np.zeros(s.d2, dtype=np.int64), s.f_identity, np.arange(r)))
    assert np.array_equal(q.mult_table()[np.ix_(tf, reps)], np.arange(q.order).reshape(-1, r))
    conjugates = q.products(q.products(q.inverses(reps)[:, None], tf), reps[:, None])
    assert np.array_equal(q.coset_conjugation, q.tf_subgroup().local[conjugates])
    assert np.array_equal(q.coset_conjugation,
                          np.diagonal(q.coset_rows[tf], axis1=1, axis2=2).T)


def test_codec_rejects_what_is_not_a_normal_form():
    s = spec("twistE8")
    q = build_quotient(s, 2)
    for f, p in [(s.f_order, 0), (0, -1), (0, s.rot_order), (-1, 0)]:
        with pytest.raises(ValueError):
            q.ids([[0, 0]], [f], [p])
    with pytest.raises(ValueError):
        q.ids([[0, 0, 0]], [0], [0])
    for i in (-1, q.order):
        with pytest.raises(ValueError):
            q.parts([0, i])


@settings(max_examples=40)
@given(name=st.sampled_from(catalog.names()), k=st.integers(1, 3), data=st.data())
def test_ids_invert_parts(name, k, data):
    q = build_quotient(spec(name), k * catalog.CATALOG[name].expected["m0"])
    x = np.array(data.draw(st.lists(st.integers(0, q.order - 1), max_size=30)), dtype=np.int64)
    assert (q.ids(*q.parts(x)) == x).all()


def test_section_bijectivity():
    for name, N in [("pg", 3), ("twistE8", 2), ("helix-C3", 4)]:
        s = spec(name)
        q = build_quotient(s, N)
        images = {int(q.ids(*astuple(normal_form(s, section(s, v)))))
                  for v in itertools.product(range(N), repeat=s.d2)}
        assert len(images) == N ** s.d2


def test_mod_reduction_soundness(rng):
    # t(n + N e_j) and t(n) t(e_j)^N agree in the quotient
    for name, N in [("pg", 3), ("twistE8", 2), ("twistE8-m4", 4)]:
        s = spec(name)
        q = build_quotient(s, N)
        for _ in range(12):
            n = tuple(int(rng.integers(-N, 2 * N)) for _ in range(s.d2))
            j = int(rng.integers(s.d2))
            shifted = list(n)
            shifted[j] += N
            lhs = int(q.ids(*astuple(normal_form(s, section(s, shifted)))))
            ej = [int(i == j) for i in range(s.d2)]
            rhs = q.mul(int(q.ids(*astuple(normal_form(s, section(s, n))))),
                        int(q.ids(*astuple(normal_form(s, power(section(s, ej), N))))))
            assert lhs == rhs


def test_quotient_multiplication_matches_isometries(rng):
    # (spec, N, sampled pairs); None checks every pair
    cases = [(spec("pg"), 3, None), (spec("screw-C4"), 2, None),
             (spec("helix-C3"), 2, None), (spec("helix-C3"), 3, None),
             (rod_spec(5, True, 1.2345), 4, None), (spec("twistE8"), 2, 60),
             (spec("twistE8"), 6, 200), (spec("twistE8-m4"), 12, 200)]
    for s, N, samples in cases:
        q = build_quotient(s, N)
        table = q.mult_table()
        if samples is None:
            pairs = itertools.product(range(q.order), repeat=2)
        else:
            pairs = [(int(rng.integers(q.order)), int(rng.integers(q.order)))
                     for _ in range(samples)]
        for i, j in pairs:
            direct = int(q.ids(*astuple(normal_form(
                s, iso.compose(reconstruct(s, form(q, i)), reconstruct(s, form(q, j)))))))
            assert table[i, j] == direct, (s.name, N, i, j)
        # identity and inverses
        assert (table[q.identity] == np.arange(q.order)).all()
        for _ in range(20):
            i = int(rng.integers(q.order))
            assert q.mul(i, q.inv(i)) == q.identity


def test_table_above_the_cap_is_refused():
    q = build_quotient(spec("twistE8"), 24)
    assert q.order == 18432
    with pytest.raises(CapExceeded):
        q.mult_table()


@pytest.mark.parametrize("row", [0, 1151])
def test_a_table_row_without_the_identity_is_refused(monkeypatch, row):
    # pg N=24 (order 1152) scans its identity rows in two blocks
    q = build_quotient(catalog.CATALOG["pg"].build(), 24)
    table = q._collect()
    _, cols = np.nonzero(table == q.identity)
    assert np.array_equal(q.mult_table(), table)
    assert q._inverse.dtype == cols.dtype and np.array_equal(q._inverse, cols)
    table[row, cols[row]] = table[row, cols[row] - 1]
    monkeypatch.setattr(groups.QuotientGroup, "_collect", lambda self: table)
    with pytest.raises(InternalInconsistency):
        build_quotient(catalog.CATALOG["pg"].build(), 24).mult_table()


def test_reconstruct_round_trip(rng):
    s = spec("twistE8")
    q = build_quotient(s, 2)
    for _ in range(25):
        i = int(rng.integers(q.order))
        assert normal_form(s, reconstruct(s, form(q, i))) == form(q, i)


@settings(max_examples=40)
@given(name=st.sampled_from(catalog.names()), data=st.data())
def test_normal_forms_of_reconstruct_round_trip(name, data):
    s = spec(name)
    nf = st.builds(NormalForm, st.tuples(*[st.integers(-20, 20)] * s.d2),
                   st.integers(0, s.f_order - 1), st.integers(0, s.rot_order - 1))
    nfs = data.draw(st.lists(nf, min_size=1, max_size=8))
    n, f, p = normal_forms_of(s, [reconstruct(s, x) for x in nfs])
    assert n.shape == (len(nfs), s.d2)
    assert (n.tolist(), f.tolist(), p.tolist()) == (
        [list(x.n) for x in nfs], [x.f for x in nfs], [x.p for x in nfs])


@settings(max_examples=40)
@given(name=st.sampled_from(catalog.names()), k=st.integers(1, 3), data=st.data())
def test_mult_table_is_associative(name, k, data):
    q = build_quotient(spec(name), k * catalog.CATALOG[name].expected["m0"])
    ids = st.lists(st.integers(0, q.order - 1), min_size=3, max_size=3)
    a, b, c = np.array(data.draw(st.lists(ids, min_size=1, max_size=20))).T
    table = q.mult_table()
    assert (table[table[a, b], c] == table[a, table[b, c]]).all()


def test_tf_slice_drops_point_group():
    s = tf_slice(spec("helix-C3"))
    assert s.rot_order == 1
    assert validate_spec(s) == []
    assert build_quotient(s, 2).order == 6


# -- the multiplication table, against the per-element factorization ------------

TABLE_CASES = ([(name, k * catalog.CATALOG[name].expected["m0"])
                for name in catalog.names() for k in (1, 2, 3)]
               + [("twistE8", 8), ("pg", 24)])


@pytest.mark.parametrize("name,N", TABLE_CASES)
def test_mult_table_matches_the_oracle(name, N):
    q = quotient(name, N)
    assert np.array_equal(q.mult_table(), mult_table_oracle(q))


@pytest.mark.parametrize("k", range(3, 11))
@pytest.mark.parametrize("flip", [False, True])
def test_rod_mult_table_matches_the_oracle(k, flip):
    s = rod_spec(k, flip, 1.2345)
    q = build_quotient(s, find_m0(s).m0)
    assert np.array_equal(q.mult_table(), mult_table_oracle(q))


@pytest.mark.parametrize("build,N", [(s3_plane_spec, 6), (s3_plane_spec, 12), (s4_plane_spec, 12)])
def test_non_abelian_mult_table_matches_the_oracle(build, N):
    # the catalog kernels are abelian and their cocycles trivial wherever it
    # matters, so only these groups tell the order of products in F apart
    s = build()
    assert validate_spec(s) == [] and N % find_m0(s).m0 == 0
    q = build_quotient(s, N)
    assert np.array_equal(q.mult_table(), mult_table_oracle(q))


def test_p1_mult_table_adds_exponents():
    # p1 mod T^64 is (Z/64)^2 at the table cap: id i is code(n_i), and
    # table[i, j] = code((n_i + n_j) mod 64), checked one row block at a time
    q = quotient("p1", 64)
    assert q.order == 4096
    table = q.mult_table().reshape(64, 64, 64, 64)
    x = np.arange(64)
    low = (x[:, None, None] + x[None, None, :]) % 64      # (a2, b1, b2) -> (a2 + b2) mod 64
    for a1 in range(64):
        high = (a1 + x) % 64 * 64                          # b1 -> 64 * ((a1 + b1) mod 64)
        assert np.array_equal(table[a1], high[None, :, None] + low)


def test_mult_table_factors_only_generator_level_rows(monkeypatch):
    s = catalog.CATALOG["twistE8"].build()
    q = build_quotient(s, 6)
    rows, match_f = [], groups._match_f
    monkeypatch.setattr(groups, "_match_f",
                        lambda spec, qs: rows.append(len(qs)) or match_f(spec, qs))
    q.mult_table()
    k, r, cells = s.f_order, s.rot_order, 6 ** s.d2
    bound = 2 * (r * r + r * cells + r * k + cells * k + s.d2 * cells)
    assert bound == 1200
    assert 0 < sum(rows) <= bound


def conjugated(s, R):
    """s with every O(d1) block q replaced by R q R^T."""
    def move(g):
        return Isometry(R @ g.q @ R.T, g.p, g.tau)
    return GroupSpec(s.name, s.d1, s.d2, [R @ f @ R.T for f in s.f_elements],
                     [move(t) for t in s.t_lifts], [move(p) for p in s.p_reps], tol=s.tol)


@settings(max_examples=8)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_conjugated_specs_keep_their_tables(seed):
    rng = np.random.default_rng(seed)
    for name in catalog.names():
        s = spec(name)
        R, _ = np.linalg.qr(rng.standard_normal((s.d1, s.d1)))
        c = conjugated(s, R)
        assert validate_spec(c) == [], name
        m0 = find_m0(s).m0
        assert find_m0(c).m0 == m0, name
        for N, want in catalog.CATALOG[name].expected["orders"].items():
            assert build_quotient(c, N).order == want
        for N in (m0, 2 * m0):
            assert np.array_equal(build_quotient(c, N).mult_table(),
                                  build_quotient(s, N).mult_table()), (name, N)


@settings(max_examples=10)
@given(k=st.integers(3, 10), flip=st.booleans(), alpha=st.floats(0.1, 3.0))
def test_drawn_rod_mult_tables_match_the_oracle(k, flip, alpha):
    s = rod_spec(k, flip, alpha)
    q = build_quotient(s, find_m0(s).m0)
    assert np.array_equal(q.mult_table(), mult_table_oracle(q))


# -- products without the table: the presentation's formula pair by pair ------

def fresh_quotient(s, N):
    """A quotient of s that no earlier call has given a table."""
    find_m0(s)
    return groups.QuotientGroup(s, N)


def collected_agrees_with_the_table(q):
    """Every product and inverse by the presentation's formula equals the table's."""
    ids = np.arange(q.order)
    table = q.mult_table()
    return (np.array_equal(q._collected(*np.broadcast_arrays(ids[:, None], ids)), table)
            and np.array_equal(q._inverted(ids), q._inverse))


@pytest.mark.parametrize("name,N", [(name, k * catalog.CATALOG[name].expected["m0"])
                                    for name in catalog.names() for k in (1, 2, 3)])
def test_collected_products_equal_the_table(name, N):
    assert collected_agrees_with_the_table(fresh_quotient(spec(name), N))


@pytest.mark.parametrize("build,N", [(s3_plane_spec, 6), (s3_plane_spec, 12),
                                     (c5_quarter_spec, 1), (c5_quarter_spec, 2),
                                     (s4_plane_spec, 12)])
def test_collected_products_equal_the_table_on_non_abelian_kernels(build, N):
    # s4_plane_spec at N=12 has order 3456; at 24 it is past the cap
    assert collected_agrees_with_the_table(fresh_quotient(build(), N))


@pytest.mark.parametrize("k", range(6, 11))
@pytest.mark.parametrize("flip", [False, True])
def test_collected_rod_products_equal_the_table(k, flip):
    s = rod_spec(k, flip, 1.2345)
    assert collected_agrees_with_the_table(fresh_quotient(s, find_m0(s).m0))


def presentation_reads_the_level_n_build(q):
    """True iff the generator-level data built at q's N equals the spec's
    presentation read at residues mod m0: psi, c and z at the residues of
    their grid points, f2 and phi as they are, code(s) as s mod N, and the
    codes of v as P m mod N."""
    pres = q.spec.presentation
    grid, s_code, f2, v_code, c, phi, psi, z = collection_oracle(q)
    res = pres.residue(grid)
    z_read = pres.z[res[:, None], res]
    return (np.array_equal(psi, pres.psi[res]) and np.array_equal(c, pres.c[:, res])
            and (np.array_equal(z, z_read) if z is not None
                 else (z_read == q.spec.f_identity).all())
            and np.array_equal(f2, pres.f2) and np.array_equal(phi, pres.phi)
            and np.array_equal(s_code, pres.s % q.N @ q._place)
            and np.array_equal(v_code, grid @ pres.p_mat.swapaxes(1, 2) % q.N @ q._place))


CATALOG_COLLECTIONS = [(name, k * catalog.CATALOG[name].expected["m0"])
                       for name in catalog.names() for k in (1, 2, 3)]


@pytest.mark.parametrize("name,N", [(name, N) for name, N in CATALOG_COLLECTIONS
                                    if groups.QuotientGroup(spec(name), N).order
                                    <= groups.DEFAULT_CAP])
def test_collection_equals_the_three_call_build(name, N):
    assert presentation_reads_the_level_n_build(fresh_quotient(spec(name), N))


@pytest.mark.parametrize("k", range(6, 11))
@pytest.mark.parametrize("flip", [False, True])
def test_rod_collection_equals_the_three_call_build(k, flip):
    s = rod_spec(k, flip, 1.2345)
    m0 = find_m0(s).m0
    for N in (m0, 2 * m0):
        assert presentation_reads_the_level_n_build(fresh_quotient(s, N))


SPEC_BUILDS = {**{name: catalog.CATALOG[name].build for name in catalog.names()},
               "s3-plane": s3_plane_spec, "s4-plane": s4_plane_spec, "c5-quarter": c5_quarter_spec,
               "rod-C6": lambda: rod_spec(6, False, 1.2345),
               "rod-C7-flip": lambda: rod_spec(7, True, 1.2345)}


@pytest.mark.parametrize("name", SPEC_BUILDS)
def test_the_one_call_presentation_equals_the_three_call_build_at_m0(name):
    # at N = m0 the residues are the grid codes, so every array is read as it is
    s = SPEC_BUILDS[name]()
    pres = s.presentation
    grid, s_code, f2, v_code, c, phi, psi, z = collection_oracle(fresh_quotient(s, pres.m0))
    assert np.array_equal(pres.residue(grid), np.arange(len(grid)))
    assert np.array_equal(pres.s % pres.m0 @ pres.place, s_code)
    for built, want in [(pres.f2, f2), (pres.c, c), (pres.phi, phi), (pres.psi, psi)]:
        assert built.dtype == want.dtype and np.array_equal(built, want)
    if z is None:           # the level-N build keeps no cocycle over a trivial F
        assert (pres.z == s.f_identity).all()
    else:
        assert pres.z.dtype == z.dtype and np.array_equal(pres.z, z)


# -- G itself: the presentation's formula at unbounded exponents --------------

def drawn_forms(s, rng, size, bound):
    """size normal forms (n, f, p) of s with exponents drawn from [-bound, bound]."""
    return (rng.integers(-bound, bound + 1, size=(size, s.d2)),
            rng.integers(s.f_order, size=size), rng.integers(s.rot_order, size=size))


def members_of(s, n, f, p):
    """The (q, p, tau) stacks of the members t(n) f p, tau over the D of `s.points`."""
    d, _, p_tau, p_q = s.points
    return s.section_q(n) @ (s.f_stack[f] @ p_q[p]), p, n * d + p_tau[p]


@pytest.mark.parametrize("bound", [2 ** 12, 2 ** 20])
@pytest.mark.parametrize("name", SPEC_BUILDS)
def test_g_level_products_and_inverses_match_float_factoring(name, bound):
    # x*y and x^-1 composed as q blocks and factored by `normal_forms`; from
    # about 2^23 the float section drifts out of tol on the specs whose lifts
    # rotate by irrational angles, so the exact checks below take larger ones
    s = SPEC_BUILDS[name]()
    pres, (_, p_mat, _, _), rng = s.presentation, s.points, np.random.default_rng(bound)
    x, y = drawn_forms(s, rng, 2000, bound), drawn_forms(s, rng, 2000, bound)
    (qx, px, tx), (qy, py, ty) = members_of(s, *x), members_of(s, *y)
    p_xy = s.p_mul_table()[px, py]
    n, f = normal_forms(s, qx @ qy, p_xy, tx + (p_mat[px] @ ty[..., None])[..., 0])
    got = pres.multiply(x, y)
    assert np.array_equal(got[0], n) and np.array_equal(got[1], f) and np.array_equal(got[2], p_xy)
    p_inv = np.argmax(s.p_mul_table() == s.p_identity, axis=1)[px]
    n, f = normal_forms(s, qx.swapaxes(1, 2), p_inv, -(p_mat[p_inv] @ tx[..., None])[..., 0])
    got = pres.invert(x)
    assert np.array_equal(got[0], n) and np.array_equal(got[1], f) and np.array_equal(got[2], p_inv)


@pytest.mark.parametrize("name", SPEC_BUILDS)
def test_g_level_products_reduce_invert_and_associate_exactly(name):
    # 10^4 draws with exponents up to 2^40: the translation of x*y is
    # tau(x) + P_x tau(y) in integers, x*y reduced mod N is the quotient's
    # product at m0 and 2 m0 under the cap, x x^-1 = x^-1 x = 1 and
    # (x y) w = x (y w)
    s = SPEC_BUILDS[name]()
    pres, (d, p_mat, p_tau, _), rng = s.presentation, s.points, np.random.default_rng(40)
    x, y, w = (drawn_forms(s, rng, 10 ** 4, 2 ** 40) for _ in range(3))
    xy = pres.multiply(x, y)
    tau = x[0] * d + p_tau[x[2]] + (p_mat[x[2]] @ (y[0] * d + p_tau[y[2]])[..., None])[..., 0]
    assert np.array_equal(xy[2], s.p_mul_table()[x[2], y[2]])
    assert np.array_equal(xy[0] * d, tau - p_tau[xy[2]])
    for N in (pres.m0, 2 * pres.m0):
        q = build_quotient(s, N)
        if q.order <= groups.DEFAULT_CAP:
            assert np.array_equal(q.products(q.ids(*x), q.ids(*y)), q.ids(*xy)), N
    inverse = pres.invert(x)
    for one in (pres.multiply(x, inverse), pres.multiply(inverse, x)):
        assert not one[0].any() and (one[1] == s.f_identity).all() and (one[2] == s.p_identity).all()
    left, right = pres.multiply(xy, w), pres.multiply(x, pres.multiply(y, w))
    assert all(np.array_equal(u, v) for u, v in zip(left, right))


def test_section_inverses_carry_the_cocycle():
    # twistE8-m4's lifts do not commute, so t(a)^-1 = t(-a) z(a,-a)^-1: at
    # N=12 an inverse written as t(-a) alone disagrees with the table
    s = catalog.CATALOG["twistE8-m4"].build()
    q = fresh_quotient(s, 12)
    grid = q.parts(q.elements)[0][::s.f_order * s.rot_order]
    sections = q.ids(grid, s.f_identity, s.p_identity)
    inverses = q.inverses(sections)
    assert q._table is None
    assert not np.array_equal(inverses, q.ids(-grid, s.f_identity, s.p_identity))
    assert (q.products(sections, inverses) == q.identity).all()
    q.mult_table()
    assert np.array_equal(inverses, q._inverse[sections])


def test_products_build_the_table_only_past_the_break_even():
    q = fresh_quotient(spec("twistE8"), 6)
    a = np.arange(q.order)
    few = q.order ** 2 // groups.TABLE_BREAK_EVEN // q.order       # rows below the break-even
    below = q.products(a[:few, None], a)
    assert q._table is None and "presentation" in vars(q.spec)
    above = q.products(a[:few + 1, None], a)
    assert q._table is not None
    assert np.array_equal(below, above[:few]) and np.array_equal(above, q._table[:few + 1])


def test_products_broadcast_and_refuse_what_is_no_id():
    q = fresh_quotient(spec("twistE8"), 4)
    g = q.generators
    assert q.products(g[:, None], g[None, :3]).shape == (len(g), 3)
    assert q.products(g[0], g[1]).shape == () and q.mul(g[0], g[1]) == q.products(g[0], g[1])
    assert q.inv(g[2]) == q.inverses(g)[2]
    for bad in (-1, q.order):
        with pytest.raises(ValueError):
            q.products(bad, 0)
        with pytest.raises(ValueError):
            q.inverses([0, bad])
    assert q._table is None


def test_ids_outside_the_quotient_are_refused_with_and_without_the_table():
    # the table is indexed only after the check, so -1 cannot wrap to the last id
    q = fresh_quotient(spec("twistE8"), 2)
    for _ in range(2):
        for bad in (-1, q.order):
            for a, b in [(bad, 0), (0, bad), ([0, bad], 0), (0, [[bad], [0]])]:
                with pytest.raises(ValueError):
                    q.products(a, b)
            for i, j in [(bad, 0), (0, bad)]:
                with pytest.raises(ValueError):
                    q.mul(i, j)
            with pytest.raises(ValueError):
                q.inverses([0, bad])
            with pytest.raises(ValueError):
                q.inv(bad)
        q.mult_table()
    assert q._table is not None


@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("d2", [0, 1, 2, 3])
def test_grid_points_are_in_product_order(d2, N):
    grid = grid_points(N, d2)
    assert grid.dtype == np.int64 and grid.shape == (N ** d2, d2)
    assert grid.tolist() == [list(v) for v in itertools.product(range(N), repeat=d2)]
    assert np.array_equal(grid @ grid_place(N, d2), np.arange(N ** d2))


def test_products_past_the_cap_are_refused_before_any_is_formed():
    q = build_quotient(catalog.CATALOG["twistE8"].build(), 24)
    with pytest.raises(CapExceeded):
        q.products(0, 1)
    with pytest.raises(CapExceeded):
        q.inverses(0)
    assert "presentation" not in vars(q.spec)


def test_build_quotient_collects_nothing():
    # analyze builds quotients for their orders only; the presentation waits
    # for the first product
    s = catalog.CATALOG["twistE8"].build()
    assert validate_spec(s) == [] and find_m0(s).m0 == 2
    q = build_quotient(s, 6)
    assert "presentation" not in vars(s) and q._table is None


def test_a_table_that_disagrees_with_the_formula_is_refused(monkeypatch):
    # the opposite group's table passes associativity and inverses; only the
    # comparison with the collection formula refuses it
    collect = groups.QuotientGroup._collect
    monkeypatch.setattr(groups.QuotientGroup, "_collect", lambda self: collect(self).T)
    q = fresh_quotient(s3_plane_spec(), 6)
    with pytest.raises(InternalInconsistency, match="the table and the collection formula"):
        q.mult_table()
    assert q._table is None
