import copy
import itertools
import math

import numpy as np
import pytest

from euciso import catalog, dual
from euciso import isometry as iso
from euciso.groups import QuotientGroup, find_m0
from euciso.splitting import split_quotient
from euciso.verify import run_suite


def test_spot_check_draws_its_own_triples(monkeypatch):
    # mult_table already spot-checks its fresh table with default_rng(0);
    # verify's check must draw other triples, or it can never fail on its own
    calls = []
    original = QuotientGroup.spot_check

    def spy(self, rng=None, samples=16):
        probe = copy.deepcopy(rng) if rng is not None else np.random.default_rng(0)
        calls.append((rng is None, self.order,
                      [int(probe.integers(self.order)) for _ in range(3 * samples)]))
        return original(self, rng, samples)

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
    s, calls, induce = catalog.CATALOG["twistE8"].build(), [], dual.induce
    monkeypatch.setattr(dual, "induce", lambda q, r: calls.append(q.N) or induce(q, r))
    assert run_suite(s, seed=0).passed
    labels = dual.enumerate_dual(s, find_m0(s).m0, seed=0).labels
    assert len(calls) == len(labels)


@pytest.mark.parametrize("name", ["helix-C3", "twistE8", "twistE8-m4"])
def test_associativity_check_catches_a_transposed_table(monkeypatch, name):
    # the table of the opposite group is associative and has the same identity
    # and inverses; only products of generators compared with isometry
    # composition tell it apart, and these groups have noncommuting generators
    collect = QuotientGroup._collect
    monkeypatch.setattr(QuotientGroup, "_collect", lambda self: collect(self).T)
    report = run_suite(catalog.CATALOG[name].build(), seed=0)
    assert [c.name for c in report.checks if not c.passed] == ["composition-associativity"]


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
