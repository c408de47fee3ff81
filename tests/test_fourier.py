import json
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from euciso import fourier, io
from euciso.dual import enumerate_dual
from euciso.errors import IncompatibleShapes, IncompleteTable
from euciso.fourier import (PeriodicFunction, SummableFunction, convolve, inner_product,
                            inverse_transform, plancherel_pairing, transform, translate)
from euciso.groups import NormalForm
from euciso.reps import irreps, quotient_irreps

from conftest import (dim_stacks, inverse_oracle, quotient, spec, transform_at_oracle,
                      transform_oracle, trivial_on)


def test_random_draws_each_element_in_id_order():
    q = quotient("pg", 3)
    for shape in [(1, 1), (2, 3)]:
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        u = PeriodicFunction.random(q, shape, rng)
        for i in q.elements:
            expected = ref.standard_normal(shape) + 1j * ref.standard_normal(shape)
            assert np.array_equal(u[i], expected)
        assert rng.standard_normal() == ref.standard_normal()


def test_values_must_have_the_quotient_shape():
    q = quotient("pg", 3)
    for values in [np.zeros((1, 2, 2)), np.zeros((2, 2)), np.zeros((q.order, 2, 1))]:
        with pytest.raises(IncompatibleShapes):
            PeriodicFunction(q, (2, 2), values)


def test_inner_product_delta_and_constant():
    q = quotient("pg", 3)
    d = PeriodicFunction.delta(q)
    assert inner_product(d, d) == pytest.approx(1 / q.order)
    one = PeriodicFunction.constant(q, 1.0)
    assert inner_product(one, one) == pytest.approx(1.0)


def test_inner_product_is_period_independent(rng):
    q = quotient("pg", 3)
    u = PeriodicFunction.random(q, (2, 2), rng)
    v = PeriodicFunction.random(q, (2, 2), rng)
    base = inner_product(u, v)
    lifted = inner_product(u.lift(6), v)
    assert abs(base - lifted) < 1e-12
    assert u.max_abs_diff(u.lift(6)) == 0


def test_inner_product_shape_guard(rng):
    q = quotient("pg", 3)
    with pytest.raises(IncompatibleShapes):
        inner_product(PeriodicFunction.random(q, (1, 2), rng),
                      PeriodicFunction.random(q, (2, 1), rng))


def test_transform_of_constant_hits_only_the_trivial_class():
    q = quotient("pg", 3)
    t = transform(PeriodicFunction.constant(q, 1.0))
    reps = t.atlas.irreps
    live = [i for i, m in t.entries.items() if np.abs(m).max() > 1e-10]
    assert len(live) == 1
    (i,) = live
    assert reps[i].dim == 1
    assert t.entries[i][0, 0] == pytest.approx(1.0)


def test_transform_of_delta_is_scaled_identity():
    q = quotient("pg", 3)
    t = transform(PeriodicFunction.delta(q))
    for i, rho in enumerate(t.atlas.irreps):
        assert np.abs(t.entries[i] - np.eye(rho.dim) / q.order).max() < 1e-12


def test_round_trip_three_shapes(rng):
    for name, N in [("pg", 3), ("helix-C3", 2), ("twistE8", 2)]:
        q = quotient(name, N)
        for shape in [(1, 1), (2, 3), (3, 1)]:
            u = PeriodicFunction.random(q, shape, rng)
            assert u.max_abs_diff(inverse_transform(transform(u))) <= 1e-8


def einsum_transform(u, seed=0):
    """The per-irreducible transform the stacked one must match."""
    m, n = u.shape
    return {ri: np.einsum("gab,gij->aibj", u.values, rho.mats).reshape(m * rho.dim, n * rho.dim)
            / u.q.order for ri, rho in enumerate(quotient_irreps(u.q, seed=seed))}


def einsum_inverse(table):
    m, n = table.shape
    dense = np.zeros((table.q.order, m, n), dtype=complex)
    for ri, rho in enumerate(table.atlas.irreps):
        block = table.entries[ri].reshape(m, rho.dim, n, rho.dim)
        dense += rho.dim * np.einsum("aibj,gij->gab", block, rho.mats.conj())
    return dense


def loop_plancherel(t1, t2):
    return sum(rho.dim * np.sum(t1.entries[ri] * t2.entries[ri].conj())
               for ri, rho in enumerate(t1.atlas.irreps))


@pytest.mark.parametrize("name,N", [("pg", 3), ("helix-C3", 2), ("twistE8", 2), ("twistE8", 4)])
def test_stacked_transform_matches_per_irreducible_oracle(name, N, rng):
    q = quotient(name, N)
    for shape in [(1, 1), (2, 3), (3, 3)]:
        u, v = (PeriodicFunction.random(q, shape, rng) for _ in range(2))
        tu, tv = transform(u), transform(v)
        want = einsum_transform(u)
        assert list(tu.entries) == list(want)
        assert max(np.abs(tu.entries[i] - want[i]).max() for i in want) <= 1e-12
        assert np.abs(inverse_transform(tu).values - einsum_inverse(tu)).max() <= 1e-12
        assert abs(plancherel_pairing(tu, tv) - loop_plancherel(tu, tv)) <= 1e-12


@pytest.mark.parametrize("name,N", [("twistE8", 2), ("twistE8", 4), ("pg", 3), ("pg", 6),
                                    ("helix-C3", 2)])
def test_atlas_stacks_transform_matches_the_restacking_oracle_bit_for_bit(name, N, rng):
    # the inverse conjugates no shared stack: the atlas's bytes do not move
    q = quotient(name, N)
    stacks = enumerate_dual(q.spec, N).stacks
    before = [stack.tobytes() for stack in stacks.values()]
    for shape in [(1, 1), (2, 3)]:
        u = PeriodicFunction.random(q, shape, rng)
        got, want = transform(u), transform_oracle(u)
        assert list(got.entries) == list(want.entries)
        assert all(got.entries[i].tobytes() == want.entries[i].tobytes() for i in want.entries)
        assert inverse_transform(got).values.tobytes() == inverse_oracle(want).values.tobytes()
    assert [stack.tobytes() for stack in stacks.values()] == before


def test_transform_reads_the_atlas_stacks_in_place(rng):
    # each irreducible is a view into its dimension's stack, and a second
    # transform and its inverse allocate less than the largest of them, so
    # less than one (n, sum d^2) = (n, n) complex array: no stack is copied
    q = quotient("pg", 12)
    atlas = enumerate_dual(q.spec, q.N)
    at = 0
    for d, stack in atlas.stacks.items():
        k = stack.shape[1]
        assert stack.shape == (q.order, k, d, d)
        assert all(np.shares_memory(r.mats, stack) for r in atlas.irreps[at:at + k])
        at += k
    u = PeriodicFunction.random(q, (2, 3), rng)
    transform(u)
    tracemalloc.start()
    try:
        table = transform(u)
        inverse_transform(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < max(stack.nbytes for stack in atlas.stacks.values()) < q.order ** 2 * 16


@pytest.mark.parametrize("name,N", [("twistE8", 4), ("pg", 6), ("helix-C3", 6)])
def test_table_entries_are_views_and_the_inverse_copies_one_dimension_at_a_time(name, N, rng):
    # a table holds one (k, m d, n d) stack per dimension and each entry is
    # its slot; the inverse holds its result, one term of the result's size
    # and one dimension's conjugated values at a time (plus a few kB of
    # Python objects), never a second copy of the whole table
    q = quotient(name, N)
    for shape in [(1, 1), (2, 3)]:
        table = transform(PeriodicFunction.random(q, shape, rng))
        (m, n), size, at = shape, 0, 0
        for d, irreducibles in table.atlas.stacks.items():
            stack, k = table.stacks[d], irreducibles.shape[1]
            assert stack.shape == (k, m * d, n * d)
            for j in range(k):
                view = table.entries[at + j]
                assert np.shares_memory(view, stack)
                assert view.ctypes.data == stack[j].ctypes.data and view.shape == stack[j].shape
            size, at = size + stack.nbytes, at + k
        assert list(table.entries) == list(range(len(table.atlas.dims)))
        inverse_transform(table)
        tracemalloc.start()
        try:
            back = inverse_transform(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == back.values.nbytes
        largest = max(stack.nbytes for stack in table.stacks.values())
        assert peak < 2 * back.values.nbytes + largest + 4096


def test_incomplete_table_rejected():
    # a table's entries cannot be deleted; a file that misses one is refused when read
    q = quotient("pg", 3)
    t = transform(PeriodicFunction.delta(q))
    with pytest.raises(TypeError):
        del t.entries[0]
    data = json.loads(io.canonical_json(io.table_to_dict(t)))
    del data["entries"][0]
    with pytest.raises(IncompleteTable, match="irrep 0 has no entry"):
        io.table_from_dict(data, q)


def test_plancherel_random_pairs(rng):
    for name, N in [("pg", 3), ("screw-C4", 2), ("twistE8", 2)]:
        q = quotient(name, N)
        for _ in range(20):
            u = PeriodicFunction.random(q, (2, 2), rng)
            v = PeriodicFunction.random(q, (2, 2), rng)
            lhs = inner_product(u, v)
            rhs = plancherel_pairing(transform(u), transform(v))
            assert abs(lhs - rhs) <= 1e-8


def test_plancherel_refuses_tables_of_another_quotient_shape_or_basis(rng):
    q = quotient("twistE8", 2)
    u = PeriodicFunction.random(q, (1, 1), rng)
    others = [transform(u, seed=1), transform(PeriodicFunction.random(q, (2, 2), rng)),
              transform(PeriodicFunction.random(quotient("twistE8", 4), (1, 1), rng))]
    for other in others:
        with pytest.raises(IncompatibleShapes):
            plancherel_pairing(transform(u, seed=0), other)
    # pg's atlas basis does not depend on the seed, so its tables pair across seeds
    u = PeriodicFunction.random(quotient("pg", 3), (1, 1), rng)
    pairing = plancherel_pairing(transform(u, seed=0), transform(u, seed=1))
    assert abs(pairing - inner_product(u, u)) <= 1e-12


@pytest.mark.parametrize("name,N", [("pg", 3), ("helix-C3", 2), ("twistE8", 2), ("twistE8", 4)])
def test_atlas_basis_transform_matches_the_solver_basis(name, N, rng, monkeypatch):
    # the two bases differ by a unitary per irreducible; compare what it leaves alone
    q = quotient(name, N)
    pairs = [[PeriodicFunction.random(q, shape, rng) for _ in range(2)]
             for shape in [(1, 1), (2, 3), (3, 3)]]

    def basis_free():
        out = []
        for u, v in pairs:
            ut, vt = transform(u), transform(v)
            out.append((np.array([np.linalg.norm(e) for e in ut.entries.values()]),
                        plancherel_pairing(ut, vt), inverse_transform(ut).values, ut))
        return out

    atlas = basis_free()
    solved = irreps(q)
    stand_in = SimpleNamespace(q=q, seed=0, irreps=solved, dims=[r.dim for r in solved],
                               basis="solver", stacks=dim_stacks(solved))
    monkeypatch.setattr(fourier, "enumerate_dual", lambda spec, N, seed=0: stand_in)
    solver = basis_free()
    # the stand-in reaches the transform: some entry changes with the basis
    assert any(not np.allclose(a, b) for a, b in zip(atlas[-1][3].entries.values(),
                                                     solver[-1][3].entries.values()))
    for (norms, pairing, back, _), (norms_s, pairing_s, back_s, _) in zip(atlas, solver):
        assert np.abs(norms - norms_s).max() <= 1e-12
        assert abs(pairing - pairing_s) <= 1e-12
        assert np.abs(back - back_s).max() <= 1e-12


def test_a_table_carries_its_atlas_and_a_file_chain_looks_it_up_twice(rng, monkeypatch):
    # transform -> write -> read -> inverse -> Plancherel, counted over every module's copy
    q = quotient("twistE8", 2)
    u = PeriodicFunction.random(q, (2, 2), rng)
    calls = []

    def counted(spec, N, seed=0):
        calls.append(seed)
        return enumerate_dual(spec, N, seed)

    for module in [m for name, m in sys.modules.items() if name.startswith("euciso")]:
        if getattr(module, "enumerate_dual", None) is enumerate_dual:
            monkeypatch.setattr(module, "enumerate_dual", counted)
    table = transform(u, seed=1)
    back = io.table_from_dict(json.loads(io.canonical_json(io.table_to_dict(table))), q)
    assert u.max_abs_diff(inverse_transform(back)) <= 1e-8
    assert abs(plancherel_pairing(back, back) - inner_product(u, u)) <= 1e-8
    assert calls == [1, 1]
    assert table.atlas is back.atlas is enumerate_dual(q.spec, q.N, 1)
    assert (table.q, table.atlas.seed) == (q, 1)


def test_parseval_positivity(rng):
    q = quotient("pg", 3)
    u = PeriodicFunction.random(q, (2, 2), rng)
    t = transform(u)
    norm = plancherel_pairing(t, t).real
    assert norm == pytest.approx(inner_product(u, u).real)
    assert norm > 0
    zero = PeriodicFunction(q, (2, 2))
    assert plancherel_pairing(transform(zero), transform(zero)) == 0


def test_transform_shapes():
    q = quotient("pg", 3)
    u = PeriodicFunction.random(q, (2, 3), np.random.default_rng(0))
    t = transform(u)
    for i, rho in enumerate(t.atlas.irreps):
        assert t.entries[i].shape == (2 * rho.dim, 3 * rho.dim)


def test_nesting_across_periods(rng):
    # a period-N function transformed at period 2N lives on lifted classes only
    s = spec("pg")
    q3, q6 = quotient("pg", 3), quotient("pg", 6)
    u = PeriodicFunction.random(q3, (1, 1), rng)
    lifted = u.lift(6)
    t6 = transform(lifted)
    n, f, p = q6.parts(q6.elements)
    block = np.flatnonzero((n % 3 == 0).all(axis=1) & (f == s.f_identity)
                           & (p == s.p_identity)).tolist()
    for i, rho in enumerate(t6.atlas.irreps):
        if np.abs(t6.entries[i]).max() > 1e-8:
            assert trivial_on(rho, block)


def test_translation_identity_independent_sides(rng):
    q = quotient("pg", 3)
    u = PeriodicFunction.random(q, (2, 2), rng)
    for _ in range(5):
        g = int(rng.integers(q.order))
        shifted = translate(u, g)
        # direct check of the defining formula
        for h in list(q.elements)[::5]:
            assert np.abs(shifted[h] - u[q.mul(h, g)]).max() == 0
        lhs = transform(shifted)
        rhs = transform(u)
        for ri, rho in enumerate(lhs.atlas.irreps):
            pred = rhs.entries[ri] @ np.kron(np.eye(2), rho.matrix(q.inv(g)))
            assert np.abs(lhs.entries[ri] - pred).max() <= 1e-8


def test_translate_identity_element(rng):
    q = quotient("pg", 3)
    u = PeriodicFunction.random(q, (2, 2), rng)
    assert translate(u, q.identity).max_abs_diff(u) == 0


def test_translate_moves_delta_support():
    q = quotient("pg", 3)
    d = PeriodicFunction.delta(q)
    g = 7
    moved = translate(d, g)
    support = [i for i in q.elements if np.abs(moved[i]).max() > 0]
    assert support == [q.inv(g)]


def test_convolution_unit_and_shift():
    q = quotient("pg", 3)
    v = PeriodicFunction.random(q, (2, 3), np.random.default_rng(5))
    unit = SummableFunction(q.spec, (2, 2))
    unit[NormalForm((0, 0), 0, 0)] = np.eye(2)
    assert convolve(unit, v).max_abs_diff(v) < 1e-14
    shift = SummableFunction(q.spec, (2, 2))
    shift[NormalForm((4, -3), 0, 1)] = np.eye(2)   # unbounded exponents allowed
    conv = convolve(shift, v)
    h = int(q.ids((4, -3), 0, 1))
    for g in q.elements:
        assert np.abs(conv[g] - v[q.mul(q.inv(h), g)]).max() < 1e-14


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64 - 1, 2 ** 70, -2 ** 63 - 1])
def test_summable_exponents_of_any_size_reduce_mod_n(big):
    q = quotient("pg", 3)
    rng = np.random.default_rng(4)
    v = PeriodicFunction.random(q, (2, 3), rng)
    vals = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    forms = [((big, 1), 0, 1), ((2, -big), 0, 0)]
    results = []
    for reduce in (False, True):
        u = SummableFunction(q.spec, (2, 2))
        for (n, f, p), val in zip(forms, vals):
            u[NormalForm(tuple(x % q.N if reduce else x for x in n), f, p)] = val
        results.append((u.transform_at(transform(v).atlas), convolve(u, v).values))
    (series, conv), (want_series, want_conv) = results
    assert series.keys() == want_series.keys()
    assert all(np.array_equal(series[i], want_series[i]) for i in series)
    assert np.array_equal(conv, want_conv)


def test_convolution_transform_identity(rng):
    for name, N in [("pg", 3), ("twistE8", 2)]:
        q = quotient(name, N)
        u = SummableFunction.random(q.spec, (2, 2), terms=6, span=5, rng=rng)
        v = PeriodicFunction.random(q, (2, 3), rng)
        conv = convolve(u, v)
        lhs = transform(conv)
        rhs = transform(v)
        series = u.transform_at(lhs.atlas)
        for ri in range(len(lhs.atlas.dims)):
            pred = series[ri] @ rhs.entries[ri]
            assert np.abs(lhs.entries[ri] - pred).max() <= 1e-8


def test_convolution_shape_guard(rng):
    q = quotient("pg", 3)
    u = SummableFunction.random(q.spec, (2, 3), terms=2, rng=rng)
    v = PeriodicFunction.random(q, (2, 3), rng)
    with pytest.raises(IncompatibleShapes):
        convolve(u, v)


def test_classical_dft_limit(rng):
    # the quotient transform of the plain lattice is the 2-D DFT
    q = quotient("p1", 4)
    u = PeriodicFunction.random(q, (1, 1), rng)
    grid = np.zeros((4, 4), dtype=complex)
    for i, n in zip(q.elements, q.parts(q.elements)[0].tolist()):
        grid[n[0], n[1]] = u[i][0, 0]
    dft = np.fft.fft2(grid) / 16
    t = transform(u)
    for i, rho in enumerate(t.atlas.irreps):
        # read the wave vector off the generator phases
        phases = [rho.matrix(i)[0, 0] for i in q.ids(np.eye(2, dtype=np.int64), 0, 0).tolist()]
        ks = [round(np.angle(ph) / (2 * np.pi) * 4) % 4 for ph in phases]
        assert abs(t.entries[i][0, 0] - dft[(-ks[0]) % 4, (-ks[1]) % 4]) <= 1e-10


def test_random_summable_rejects_more_terms_than_normal_forms():
    # p1 has a single normal form within span 0
    assert len(SummableFunction.random(spec("p1"), terms=1, span=0).support) == 1
    with pytest.raises(ValueError):
        SummableFunction.random(spec("p1"), terms=2, span=0)


@pytest.mark.parametrize("name, N", [("twistE8", 2), ("twistE8", 4), ("pg", 6), ("helix-C3", 2)])
@pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
def test_series_per_dimension_stack_is_the_per_irreducible_sum(name, N, shape):
    q = quotient(name, N)
    u = SummableFunction.random(q.spec, shape, terms=5, span=5, rng=np.random.default_rng(N))
    atlas = enumerate_dual(q.spec, N)
    series = u.transform_at(atlas)
    assert list(series) == list(range(len(atlas.dims)))
    for ri, rho in enumerate(atlas.irreps):
        # bit for bit, signed zeros included
        assert series[ri].tobytes() == transform_at_oracle(u, rho, q).tobytes()
