import copy

import numpy as np

from euciso import catalog, dual
from euciso.groups import QuotientGroup, find_m0
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
