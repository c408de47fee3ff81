from fractions import Fraction

import numpy as np
import pytest

from euciso import catalog
from euciso import isometry as iso
from euciso.errors import DimensionMismatch, EucisoError
from euciso.isometry import Isometry, rotation2

from conftest import (c5_quarter_spec, compose_oracle, inverse, pmat_det_oracle, pmat_inv_oracle,
                      pmat_mul_oracle, pmat_order_oracle, pmat_vec, power, s3_plane_spec, spec,
                      translation_isometry)


def translation(v):
    return translation_isometry(0, v)


def glide():
    return Isometry(np.zeros((0, 0)), ((1, 0), (0, -1)), (Fraction(1, 2), 0))


def test_translations_add():
    g = iso.compose(translation((1, 0)), translation((0, 1)))
    assert g.tau == (Fraction(1), Fraction(1))
    assert g.p == ((1, 0), (0, 1))


def test_glide_squares_to_unit_translation():
    g2 = iso.compose(glide(), glide())
    assert g2.tau == (Fraction(1), Fraction(0))
    assert g2.p == ((1, 0), (0, 1))


def test_helix_powers():
    alpha = 1.0
    g = Isometry(rotation2(alpha), ((1,),), (1,))
    for n in (3, 7):
        gn = power(g, n)
        assert gn.tau == (Fraction(n),)
        assert np.abs(gn.q - rotation2(n * alpha)).max() < 1e-12


def test_inverse_laws():
    ident = iso.identity_isometry(0, 2)
    assert iso.approx_equal(inverse(ident), ident)
    t = translation((3, -2))
    assert inverse(t).tau == (Fraction(-3), Fraction(2))
    g = glide()
    gi = inverse(g)
    assert gi.tau == (Fraction(-1, 2), Fraction(0))
    assert iso.approx_equal(iso.compose(g, gi), ident)


def test_approx_equal_tolerance():
    a = Isometry(rotation2(1.0), ((1,),), (0,))
    b = Isometry(rotation2(1.0 + 2e-12), ((1,),), (0,))
    assert iso.approx_equal(a, a, 1e-9)
    assert iso.approx_equal(a, b, 1e-9)
    g = glide()
    assert not iso.approx_equal(g, inverse(g), 1e-9)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        iso.compose(translation((1, 0)), translation_isometry(0, (1,)))


def test_associativity_random_triples(rng):
    gens = spec("twistE8").generators() + spec("helix-C3").generators()
    by_dims = {}
    for g in gens:
        by_dims.setdefault((g.d1, g.d2), []).append(g)
    for pool in by_dims.values():
        for _ in range(20):
            a, b, c = (pool[int(rng.integers(len(pool)))] for _ in range(3))
            lhs = iso.compose(iso.compose(a, b), c)
            rhs = iso.compose(a, iso.compose(b, c))
            assert iso.approx_equal(lhs, rhs, 10 * 1e-9)


def test_exactness_of_lattice_blocks(rng):
    # long composition chains keep (p, tau) bit-exact
    s = spec("twistE8")
    gens = s.generators()
    chain = iso.identity_isometry(s.d1, s.d2)
    expected_p = iso.identity_int_matrix(s.d2)
    expected_tau = (Fraction(0), Fraction(0))
    for _ in range(200):
        g = gens[int(rng.integers(len(gens)))]
        chain = iso.compose(chain, g)
        expected_tau = tuple(a + b for a, b in
                             zip(expected_tau, pmat_vec(expected_p, g.tau)))
        expected_p = iso.pmat_mul(expected_p, g.p)
    assert chain.p == expected_p
    assert chain.tau == expected_tau


def test_orthogonality_drift_bound(rng):
    s = spec("twistE8")
    gens = s.generators()
    chain = iso.identity_isometry(s.d1, s.d2)
    for k in range(1, 101):
        chain = iso.compose(chain, gens[int(rng.integers(len(gens)))])
        assert iso.orth_deviation(chain.q) <= 100 * np.finfo(float).eps * k


def test_pmat_inverse_exact():
    m = ((0, -1), (1, 0))
    assert iso.pmat_mul(m, iso.pmat_inv(m)) == iso.identity_int_matrix(2)
    assert iso.pmat_det(m) == 1
    assert iso.pmat_order(m) == 4
    assert iso.pmat_order(((1, 1), (0, 1))) is None  # shear has infinite order


def random_unimodular(rng, n):
    """A product of random elementary integer matrices and sign flips: det +-1."""
    m = iso.identity_int_matrix(n)
    for _ in range(int(rng.integers(1, 9)) if n else 0):
        e = np.eye(n, dtype=int)
        i, j = rng.integers(n, size=2)
        if i != j:
            e[i, j] = rng.choice([-2, -1, 1, 2])
        elif rng.random() < 0.5:
            e[i, i] = -1
        m = pmat_mul_oracle(m, iso.int_matrix(e.tolist()))
    return m


def test_point_part_arithmetic_matches_the_generator_sum_oracles(rng):
    pairs = [(random_unimodular(rng, n), random_unimodular(rng, n))
             for n in range(4) for _ in range(60)]
    for name in catalog.names():
        parts = [g.p for g in spec(name).p_reps]
        pairs += [(a, b) for a in parts for b in parts]
    pairs += [(((1, 2 ** 70), (0, -1)), ((0, 1), (1, 0)))]
    for a, b in pairs:
        assert iso.pmat_mul(a, b) == pmat_mul_oracle(a, b)
        assert iso.pmat_det(a) == pmat_det_oracle(a)
        assert iso.pmat_inv(a) == pmat_inv_oracle(a)
        assert iso.pmat_order(a) == pmat_order_oracle(a)
        assert iso.pmat_order(a, 3) == pmat_order_oracle(a, 3)
    assert {len(a) for a, _ in pairs} == {0, 1, 2, 3}
    assert {iso.pmat_order(a) for a, _ in pairs} >= {None, 1, 2, 4}
    for m in (((2, 0), (0, 1)), ((1, 2, 3), (4, 5, 6), (7, 8, 10))):
        assert iso.pmat_det(m) == pmat_det_oracle(m)
        with pytest.raises(EucisoError, match="determinant"):
            iso.pmat_inv(m)


def test_isometry_copies_the_callers_q_block():
    m = np.eye(2)
    g = Isometry(m, [[1]], [0])
    m[0, 0] = 5                     # the caller's array stays writable
    assert g.q[0, 0] == 1
    with pytest.raises(ValueError):
        g.q[0, 0] = 5


def test_point_part_must_be_integral():
    with pytest.raises(ValueError, match="not an integer"):
        Isometry(np.eye(2), [[1.9]], [0])
    assert Isometry(np.eye(2), [[1.0]], [0]).p == ((1,),)


def test_compose_returns_a_fresh_read_only_q_block():
    g = glide()
    h = Isometry(rotation2(0.3), ((1,),), (Fraction(1, 3),))
    for a, b in [(g, g), (h, h)]:
        c = iso.compose(a, b)
        assert not np.shares_memory(c.q, a.q) and not c.q.flags.writeable


@pytest.mark.parametrize("name", [*catalog.CATALOG, "s3-plane", "c5-quarter"])
def test_compose_is_the_fraction_formula(name, rng):
    s = {"s3-plane": s3_plane_spec, "c5-quarter": c5_quarter_spec}.get(
        name, lambda: spec(name))()
    gens = s.generators()
    gens += [inverse(g) for g in gens]
    for _ in range(10):
        acc = expected = iso.identity_isometry(s.d1, s.d2)
        for _ in range(12):
            g = gens[int(rng.integers(len(gens)))]
            acc, expected = ((iso.compose(acc, g), compose_oracle(expected, g))
                             if rng.integers(2) else
                             (iso.compose(g, acc), compose_oracle(g, expected)))
            assert (acc.p, acc.tau) == (expected.p, expected.tau)
            assert all(type(t) is Fraction for t in acc.tau)
            assert acc.q.tobytes() == expected.q.tobytes()
