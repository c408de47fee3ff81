import math
from fractions import Fraction

import numpy as np
import pytest

from euciso import catalog
from euciso import isometry as iso
from euciso.errors import BadModulus, InternalInconsistency, NotCoprime
from euciso.groups import NormalForm, SubgroupView, build_quotient, find_m0
from euciso.splitting import (a_coeff, cocycle, complement_set, split_quotient,
                              verify_certificate)

from conftest import closure_oracle, reconstruct, spec


def a_coeff_scan_oracle(n, r):
    for a in range(0, -10 * n * r - 1, -1):
        if (1 - a * r) % n == 0:
            return a
    raise AssertionError("scan exhausted")


def test_cocycle_symmorphic_group_vanishes():
    table = cocycle(spec("pm"))
    assert (table == 0).all()


def test_cocycle_glide_value():
    s = spec("pg")
    table = cocycle(s)
    g, i = 1, 0      # p_reps indices of the glide and the identity
    assert tuple(table[g, g]) == (1, 0)
    for q in (i, g):
        assert tuple(table[i, q]) == (0, 0)


def test_cocycle_integral_for_all_catalog_groups():
    for name in catalog.names():
        s = spec(name)
        table = cocycle(s)
        assert table.dtype.kind == "i"
        p_mul = s.p_mul_table()
        for a, pa in enumerate(s.p_reps):
            for b, pb in enumerate(s.p_reps):
                # tau(P_a) + P_a tau(P_b) - tau(P_a P_b), in exact Fractions
                want = tuple(x - y for x, y in
                             zip(iso.compose(pa, pb).tau, s.p_reps[p_mul[a, b]].tau))
                assert tuple(Fraction(int(x)) for x in table[a, b]) == want


def test_a_coeff_examples_and_oracle():
    assert a_coeff(1, 5) == 0
    assert a_coeff(3, 2) == -1
    for nn, m, r in [(1, 1, 2), (1, 2, 3), (2, 3, 4)]:
        n = nn * m * r + 1
        assert a_coeff(n, r) == -nn * m
    for n, r in [(3, 2), (5, 8), (7, 2), (9, 4), (11, 6)]:
        assert a_coeff(n, r) == a_coeff_scan_oracle(n, r)
    with pytest.raises(NotCoprime):
        a_coeff(4, 2)


def test_complement_set_pg():
    # the identity lift stays, and the glide is lifted to t((1, 0)) * glide
    s = spec("pg")
    comp = complement_set(s, 3)
    assert comp.a == -1
    assert comp.elements == [NormalForm((0, 0), 0, 0), NormalForm((1, 0), 0, 1)]
    lifts = {s.p_reps[nf.p].p: reconstruct(s, nf) for nf in comp.elements}
    assert lifts[((1, 0), (0, 1))].tau == (Fraction(0), Fraction(0))
    assert lifts[((1, 0), (0, -1))].tau == (Fraction(3, 2), Fraction(0))
    flip = lifts[((1, 0), (0, -1))]
    sq = iso.compose(flip, flip)
    assert sq.tau == (Fraction(3), Fraction(0))   # lands in the cube of the section


def test_complement_set_n_one_keeps_plain_lifts():
    for name in ("pg", "pm", "twistE8"):
        s = spec(name)
        comp = complement_set(s, 1)
        assert comp.elements == [NormalForm((0,) * s.d2, s.f_identity, p)
                                 for p in range(s.rot_order)]
        for nf in comp.elements:
            assert reconstruct(s, nf).tau == s.p_reps[nf.p].tau


def test_complement_set_trivial_point_group():
    comp = complement_set(spec("p1"), 5)
    assert comp.elements == [NormalForm((0, 0), 0, 0)]
    assert reconstruct(spec("p1"), comp.elements[0]).tau == (Fraction(0), Fraction(0))


def test_complement_set_coprimality_guard():
    with pytest.raises(NotCoprime):
        complement_set(spec("pg"), 2)


def test_split_pg():
    cert = split_quotient(spec("pg"), 1, 3)
    assert cert.passed
    assert (cert.normal_order, cert.complement_order, cert.group_order) == (9, 2, 18)
    # the complement is generated by the coset of the corrected glide
    flip_cosets = [nf for nf in cert.complement_part if nf.p == 1]
    assert flip_cosets == [type(flip_cosets[0])((1, 0), 0, 1)]
    assert verify_certificate(spec("pg"), cert)


def test_split_p1_direct():
    cert = split_quotient(spec("p1"), 1, 4)
    assert cert.passed
    assert cert.direct_product
    assert cert.complement_order == 1


def test_split_helix_tf_direct_product():
    cert = split_quotient(spec("helix-C3-tf"), 1, 2)
    assert cert.passed and cert.direct_product
    assert cert.normal_order * cert.complement_order == cert.group_order == 6


def test_split_twist():
    cert = split_quotient(spec("twistE8"), 2, 3)
    assert cert.passed
    assert cert.normal_order == 9
    assert cert.complement_order == 2 ** 2 * 4 * 8
    assert verify_certificate(spec("twistE8"), cert)


def test_split_guards():
    with pytest.raises(NotCoprime):
        split_quotient(spec("pg"), 2, 2)
    with pytest.raises(NotCoprime):
        split_quotient(spec("pg"), 1, 2)   # shares a factor with |rot|
    with pytest.raises(BadModulus):
        split_quotient(spec("p1"), -1, -5)  # nonpositive, though N = 5


def test_certificate_tamper_detection():
    s = spec("pg")
    cert = split_quotient(s, 1, 3)
    cert.normal_part[0] = cert.complement_part[-1]
    assert not verify_certificate(s, cert)


def test_a_normal_part_that_is_no_subgroup_is_refused():
    # t(0,1) and t(1,2) multiply to t(1,0), outside the claimed normal part,
    # and |normal| = 3 is not n^d2 = 9; orders 3 * 3 still give |G| = 9
    s = spec("p1")
    cert = split_quotient(s, 1, 3)
    cert.normal_part = [NormalForm(n, 0, 0) for n in [(0, 0), (0, 1), (1, 2)]]
    cert.complement_part = [NormalForm((a, 0), 0, 0) for a in range(3)]
    cert.normal_order, cert.complement_order = 3, 3
    assert not verify_certificate(s, cert)


@pytest.mark.parametrize("field,value", [("normal_order", 3), ("complement_order", 3),
                                         ("group_order", 27), ("N", 4)])
def test_certificate_orders_are_derived_from_m_and_n(field, value):
    s = spec("pg")
    cert = split_quotient(s, 1, 3)
    assert verify_certificate(s, cert)
    setattr(cert, field, value)
    assert not verify_certificate(s, cert)


def test_split_quotients_hold_no_table():
    # twistE8 at m=2, n=3 is order 1152: its checks read about 20k products
    s = catalog.CATALOG["twistE8"].build()
    cert = split_quotient(s, 2, 3)
    assert cert.passed and verify_certificate(s, cert)
    assert s._quotients[6]._table is None


def test_membership_by_mask_agrees_with_isin():
    # the view's local map is over all of the quotient's ids, so an id outside
    # the subset and one above every member read False as np.isin reads them
    q = build_quotient(spec("pg"), 3)
    for subset in ({q.identity, 5, 7, 12}, {q.identity, 9}, {q.identity}):
        top = max(subset)
        for ids in (np.array(sorted(subset), dtype=np.int64), np.array([[5, 7], [12, q.identity]]),
                    np.array([5, 6]), np.array([top, top + 1]), np.array([q.order - 1])):
            want = bool(np.isin(ids, list(subset)).all())
            assert SubgroupView(q, list(subset)).holds(ids) == want, (subset, ids)


def test_a_view_holds_each_id_once_in_ascending_order():
    q = build_quotient(spec("pg"), 3)
    view = SubgroupView(q, [q.identity, 5, 5])
    assert view.order == 2
    assert view.elements.tolist() == sorted({q.identity, 5})
    assert view.local[view.elements].tolist() == [0, 1]
    assert (view.local >= 0).sum() == 2
    with pytest.raises(InternalInconsistency, match="lacks the identity"):
        SubgroupView(q, [5, 7])
    with pytest.raises(ValueError):
        SubgroupView(q, [q.identity, q.order])


def split_cases():
    """Every catalog group at m0 with the smallest n > 1 that splits there,
    and twistE8 at m = 2, n = 3."""
    for name in catalog.names():
        s = spec(name)
        m0, n = find_m0(s).m0, 2
        while math.gcd(n, m0 * s.rot_order) != 1:
            n += 1
        yield name, m0, n
    yield "twistE8", 2, 3


@pytest.mark.parametrize("name, m, n", list(split_cases()))
def test_generated_matches_the_closure_oracle(monkeypatch, name, m, n):
    # record the seeds split_quotient hands to generated, then close them by sets
    calls, generated = [], SubgroupView.generated

    def recording(parent, seeds):
        view = generated(parent, seeds)
        calls.append((parent, np.asarray(seeds), view))
        return view

    monkeypatch.setattr(SubgroupView, "generated", recording)
    cert = split_quotient(spec(name), m, n)
    (q, seeds, view), = calls
    assert view.elements.tolist() == sorted(closure_oracle(q, seeds.tolist()))
    assert cert.passed and view.order == cert.complement_order


def test_a_part_without_the_identity_or_with_a_repeat_is_refused():
    s = spec("pg")
    cert = split_quotient(s, 1, 3)
    one = NormalForm((0, 0), s.f_identity, s.p_identity)
    assert one in cert.normal_part and one in cert.complement_part
    # the glide for the identity: nine normal forms, but no subgroup
    glide = NormalForm((0, 0), s.f_identity, 1 - s.p_identity)
    cert.normal_part = [glide if nf == one else nf for nf in cert.normal_part]
    assert len(set(cert.normal_part)) == 9 and not verify_certificate(s, cert)
    # a repeated normal form counts once, so nine entries name eight members
    cert = split_quotient(s, 1, 3)
    cert.normal_part[-1] = cert.normal_part[-2]
    assert not verify_certificate(s, cert)
    # a repeat on top of the nine members changes nothing
    cert = split_quotient(s, 1, 3)
    cert.normal_part.append(cert.normal_part[-1])
    assert verify_certificate(s, cert)


def test_nonsymmorphic_witness():
    # the glide group is nonsymmorphic, yet its quotient at n = 3 splits
    assert split_quotient(spec("pg"), 1, 3).passed
