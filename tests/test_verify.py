import copy
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from euciso import catalog, cli, dual, fourier, groups, io, verify
from euciso import isometry as iso
from euciso.groups import GroupSpec, QuotientGroup, build_quotient, find_m0
from euciso.splitting import split_quotient
from euciso.verify import run_suite

from conftest import cyclic, s4_plane_spec


def test_spot_check_draws_its_own_triples(monkeypatch):
    # mult_table already spot-checks its fresh table with default_rng(0);
    # verify's check must draw other triples, or it can never fail on its own
    calls = []
    original = QuotientGroup.spot_check

    def spy(self, rng=None):
        probe = copy.deepcopy(rng) if rng is not None else np.random.default_rng(0)
        calls.append((rng is None, self.order,
                      [int(probe.integers(self.order)) for _ in range(3 * 16)]))
        return original(self, rng)

    monkeypatch.setattr(QuotientGroup, "spot_check", spy)
    for seed in range(2):
        calls.clear()
        assert run_suite(catalog.CATALOG["pm"].build(), seed=seed).passed
        by_table = {order: draws for unseeded, order, draws in calls if unseeded}
        by_verify = [(order, draws) for unseeded, order, draws in calls if not unseeded]
        assert len(by_verify) == 2
        for order, draws in by_verify:
            assert draws != by_table[order]


def test_a_verify_pass_builds_the_m0_atlas_once(monkeypatch):
    # the atlas checks and the Fourier checks share one atlas per (quotient, seed)
    # and each label is induced or split once
    s, calls = catalog.CATALOG["twistE8"].build(), []
    induce, split = dual.induce, dual.split_induced
    monkeypatch.setattr(dual, "induce", lambda q, r: calls.append(q.N) or induce(q, r))
    # one split call takes a whole class: count its labels, the phase rows
    monkeypatch.setattr(dual, "split_induced",
                        lambda q, rho, phases, seed: calls.extend([q.N] * len(phases))
                        or split(q, rho, phases, seed))
    assert run_suite(s, seed=0).passed
    labels = dual.enumerate_dual(s, find_m0(s).m0, seed=0).labels
    assert len(calls) == len(labels)


def opposite_group(monkeypatch):
    """Make every quotient multiply as its opposite group, a*b -> b*a, on both
    product paths: the table is transposed and the presentation's formula
    takes its arguments swapped.  Inverses are the same in the opposite
    group, so the formula path's are read from the true table."""
    collect, collected = QuotientGroup._collect, QuotientGroup._collected
    monkeypatch.setattr(QuotientGroup, "_collect", lambda self: collect(self).T)
    monkeypatch.setattr(QuotientGroup, "_collected", lambda self, a, b: collected(self, b, a))
    monkeypatch.setattr(QuotientGroup, "_inverted", lambda self, x: (
        np.argmax(collect(self) == self.identity, axis=1)[x]))


# twistE8's labels split at m0, and the split takes x*h_p's id from the
# normal-form layout, which the transposed table contradicts, so the atlas's
# homomorphism probe fails there too
FAILING_ON_A_TRANSPOSED_TABLE = {
    "helix-C3": ["composition-associativity"],
    "twistE8": ["composition-associativity", "atlas"],
    "twistE8-m4": ["section-bijectivity", "mod-N-soundness", "composition-associativity"]}


@pytest.mark.parametrize("name", FAILING_ON_A_TRANSPOSED_TABLE)
def test_associativity_check_catches_a_transposed_table(monkeypatch, name):
    # the table of the opposite group is associative and has the same identity
    # and inverses; only products of generators compared with isometry
    # composition tell it apart, and these groups have noncommuting generators.
    # twistE8-m4's sections do not commute either, so the section checks,
    # which compare products of sections with the quotient's, fail there too
    opposite_group(monkeypatch)
    report = run_suite(catalog.CATALOG[name].build(), seed=0)
    assert [c.name for c in report.checks if not c.passed] == FAILING_ON_A_TRANSPOSED_TABLE[name]


def test_section_checks_read_every_section_product(monkeypatch):
    # section-bijectivity compares the quotient's t(a) t(e_j) for every grid
    # point a and direction j, from the table at m0 and by the presentation's
    # formula at 2 m0; the opposite group gets half of them wrong on
    # twistE8-m4, and the group itself none
    s = catalog.CATALOG["twistE8-m4"].build()
    m0 = find_m0(s).m0

    def wrong_products(q):
        grid = np.array(list(itertools.product(range(q.N), repeat=2)))
        a, b = np.repeat(grid, 2, axis=0), np.tile(np.eye(2, dtype=np.int64), (len(grid), 1))
        qa, qb = s.section_q(a), s.section_q(b)
        got = q.products(verify._section_ids(q, qa, a), verify._section_ids(q, qb, b))
        return len(a), int(np.count_nonzero(got != verify._section_ids(q, qa @ qb, a + b)))

    build_quotient(s, m0).mult_table()
    assert [wrong_products(build_quotient(s, N)) for N in (m0, 2 * m0)] == [(32, 0), (128, 0)]
    opposite_group(monkeypatch)
    s = catalog.CATALOG["twistE8-m4"].build()
    build_quotient(s, m0).mult_table()
    assert [wrong_products(build_quotient(s, N)) for N in (m0, 2 * m0)] == [(32, 16), (128, 64)]
    for seed in range(3):
        failed = {c.name for c in run_suite(s, seed=seed).checks if not c.passed}
        assert {"section-bijectivity", "mod-N-soundness"} <= failed


def test_only_the_arithmetic_checks_compose_isometries(monkeypatch):
    # orthogonality-drift composes a chain of 30 and composition-associativity
    # 8 triples both ways, 4 products each: 62 per pass; nothing else does
    calls, compose = [], iso.compose
    monkeypatch.setattr(iso, "compose", lambda g, h: calls.append(1) or compose(g, h))
    for name, entry in catalog.CATALOG.items():
        s = entry.build()
        calls.clear()
        assert run_suite(s, seed=0).passed
        assert len(calls) == 62, name
        s = entry.build()
        m0 = find_m0(s).m0
        n = next(k for k in itertools.count(2) if math.gcd(k, m0 * s.rot_order) == 1)
        calls.clear()
        assert split_quotient(s, m0, n).passed
        assert calls == [], name


@pytest.mark.parametrize("k", [2, 3])
def test_verify_reports_on_a_finite_group_of_order_below_four(k):
    # C_k < O(2) with no lattice has k normal forms, fewer than the 4 terms
    # the convolution check draws on larger groups; it draws all k instead
    s = GroupSpec(f"c{k}", 2, 0, cyclic(k), [], [iso.identity_isometry(2, 0)])
    for seed in range(3):
        report = run_suite(s, seed=seed)
        assert report.passed, report.first_failure()


def test_order_check_reads_the_generators_columns(monkeypatch):
    # collapse the glide's column to the identity id: right products by a
    # generator stop permuting the ids.  The spot check is switched off, and
    # reads no pair, so that the broken table reaches the suite
    s = catalog.CATALOG["pg"].build()
    q = build_quotient(s, find_m0(s).m0)
    table = q.mult_table()
    g = q.generators[-1]
    table[:, g] = q.identity
    monkeypatch.setattr(QuotientGroup, "spot_check",
                        lambda self, rng=None: (np.zeros(0, dtype=np.int64),) * 2)
    report = run_suite(s, seed=0)
    assert "quotient-order-formula" in [c.name for c in report.checks if not c.passed]


def generated_order_oracle(q):
    """`verify._generated_order` with one bincount per generator column."""
    n, columns = q.order, q.products(q.local[:, None], q.generators)
    if columns.min() < 0 or any(not np.array_equal(np.bincount(c, minlength=n), np.ones(n))
                                for c in columns.T):
        return 0
    reached = np.zeros(n, dtype=bool)
    reached[q.identity] = True
    while not reached[columns[reached]].all():
        reached[columns[reached]] = True
    return int(reached.sum())


@pytest.mark.parametrize("damage", ["none", "negative", "past-order", "repeated", "swapped"])
def test_generated_order_agrees_with_bincounts(damage):
    # a column with an id outside [0, order) or a repeated id is not a
    # permutation; two swapped entries keep every column one
    s = catalog.CATALOG["pg"].build()
    q = build_quotient(s, 2 * find_m0(s).m0)
    table, g = q.mult_table(), q.generators[-1]
    if damage == "negative":
        table[3, g] = -1
    elif damage == "past-order":
        table[3, g] = q.order
    elif damage == "repeated":
        table[3, g] = table[4, g]
    elif damage == "swapped":
        table[[3, 4], g] = table[[4, 3], g]
    want = generated_order_oracle(q)
    assert verify._generated_order(q) == want
    assert (want == q.order) == (damage in ("none", "swapped"))


# (group, seed) pairs whose verify spot check draws a triple through the
# collapsed column below; twistE8 reaches both branches within these seeds
SPOT_CHECK_HITS = {*(("pg", seed) for seed in range(6)), ("twistE8", 4), ("twistE8", 5)}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["pg", "twistE8"])
def test_a_table_the_spot_check_breaks_is_a_failed_check(name, seed):
    # the same collapsed column with the spot check on: its error is reported
    # as a failed check, with the error's text, and ends the suite
    s = catalog.CATALOG[name].build()
    q = build_quotient(s, find_m0(s).m0)
    q.mult_table()[:, q.generators[-1]] = q.identity
    report = run_suite(s, seed=seed)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert "quotient-order-formula" in failed
    if (name, seed) in SPOT_CHECK_HITS:
        assert report.checks[-1].name == "quotient-spot-check"
        assert failed["quotient-spot-check"] == "associativity failed in quotient"
    else:
        assert "quotient-spot-check" not in failed


def test_verify_builds_the_table_only_at_m0():
    # the checks at 2 m0 and the splitting certificate collect the products
    # they read; building twistE8's N=4 and N=6 tables took 8.8 MB
    s = catalog.CATALOG["twistE8"].build()
    tracemalloc.start()
    try:
        assert run_suite(s, seed=0).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {N: q._table is None for N, q in s._quotients.items()} == {2: False, 4: True, 6: True}
    assert peak < 4.4 * 2 ** 20


def test_one_suite_builds_one_presentation_per_spec(monkeypatch):
    # every quotient the suite multiplies in, the split's among them, reads
    # the spec's one presentation
    built, init = [], groups.Presentation.__init__
    monkeypatch.setattr(groups.Presentation, "__init__",
                        lambda self, spec: built.append(spec.name) or init(self, spec))
    for name in catalog.names():
        assert run_suite(catalog.CATALOG[name].build(), seed=0).passed
    assert built == catalog.names()


def test_a_table_the_formula_disagrees_with_ends_the_suite(monkeypatch):
    # the opposite group's table alone: the m0 table's own check compares it
    # with the presentation's formula, and the suite reports that and stops
    collect = QuotientGroup._collect
    monkeypatch.setattr(QuotientGroup, "_collect", lambda self: collect(self).T)
    report = run_suite(catalog.CATALOG["twistE8-m4"].build(), seed=0)
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        ("quotient-spot-check", "the table and the collection formula disagree")]
    assert report.checks[-1].name == "quotient-spot-check"


CAP_MESSAGE = "quotient order 13824 exceeds the table cap 4096"


def test_a_quotient_past_the_table_cap_fails_the_spot_check():
    # s4_plane_spec has m0 = 12: its m0 quotient (order 3456) fits the table
    # cap, and its 2 m0 quotient is refused before a product is collected
    report = run_suite(s4_plane_spec(), seed=0)
    assert [(c.name, c.passed) for c in report.checks[:2]] == [
        ("spec-valid", True), ("m0-in-ladder", True)]
    failure = report.first_failure()
    assert (failure.name, failure.detail) == ("quotient-spot-check", CAP_MESSAGE)
    assert report.checks[-1] is failure


def test_cli_verify_reports_a_quotient_past_the_table_cap(tmp_path, capsys):
    # the cap ends the suite with a report and exit 1, not with exit 4
    path = tmp_path / "s4-plane.json"
    io.save_spec(s4_plane_spec(), str(path))
    assert cli.main(["verify", str(path)]) == cli.EXIT_VERIFY == 1
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is False and data["first_failure"] == "quotient-spot-check"
    assert data["checks"][-1] == {"name": "quotient-spot-check", "passed": False,
                                  "detail": CAP_MESSAGE}


def rolled(f):
    """f with its values moved one element id along: a wrong permutation of them."""
    def wrong(*args):
        out = f(*args)
        return fourier.PeriodicFunction(out.q, out.shape, np.roll(out.values, 1, axis=0))
    return wrong


def dropping_a_term(transform_at):
    """transform_at with the series' last support term left out."""
    def series(self, atlas):
        terms = dict(list(self.support.items())[:-1])
        return transform_at(fourier.SummableFunction(self.spec, self.shape, terms), atlas)
    return series


@pytest.mark.parametrize("check, target, name, broken", [
    ("translation-identity", verify, "translate", rolled(fourier.translate)),
    ("convolution-identity", verify, "convolve", rolled(fourier.convolve)),
    ("convolution-identity", fourier.SummableFunction, "transform_at",
     dropping_a_term(fourier.SummableFunction.transform_at)),
])
def test_a_broken_fourier_identity_side_fails_its_check(monkeypatch, check, target, name, broken):
    monkeypatch.setattr(target, name, broken)
    report = run_suite(catalog.CATALOG["twistE8"].build(), seed=0)
    assert [c.name for c in report.checks if not c.passed] == [check]
