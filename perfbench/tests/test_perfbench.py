"""Checks on the benchmark itself: cold inputs, tracer coverage, no-source refusal."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import bootstrap  # noqa: E402

if str(bootstrap.SRC) not in sys.path:
    sys.path.insert(0, str(bootstrap.SRC))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from euciso import catalog, fourier, groups, splitting, verify  # noqa: E402


@pytest.fixture
def empty_catalog_memo(monkeypatch):
    # other tests fill the memo through catalog.get; the benchmark never may
    for entry in catalog.CATALOG.values():
        monkeypatch.setattr(entry, "_spec", None)


def _specs(inputs):
    return [x[1] if isinstance(x, tuple) else x for x in inputs]


@pytest.mark.parametrize("name", ["verify-catalog", "dual-twistE8", "analyze-rods"])
def test_every_pass_gets_fresh_specs(name, empty_catalog_memo):
    w = workloads.WORKLOADS[name]
    state = w.setup(0)
    first, second = _specs(w.inputs(state)), _specs(w.inputs(state))
    assert not {id(s) for s in first} & {id(s) for s in second}


def test_a_pass_after_a_pass_starts_cold(monkeypatch, empty_catalog_memo):
    monkeypatch.setattr(workloads, "ROD_KERNELS", range(6, 8))
    w = workloads.WORKLOADS["analyze-rods"]
    state = w.setup(0)
    used = w.inputs(state)
    assert all(w.run(state, used))
    with pytest.raises(workloads.WarmCache):
        workloads.assert_cold(_specs(used))
    workloads.assert_cold(_specs(w.inputs(state)))


def test_catalog_memo_counts_as_warm(empty_catalog_memo):
    catalog.get("p1")
    with pytest.raises(workloads.WarmCache):
        workloads.assert_cold([])


def test_euler_phi():
    assert [workloads.euler_phi(k) for k in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_tracer_wraps_every_copy_and_restores():
    original = groups.normal_form
    original_mul = groups.QuotientGroup.mul
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = groups.normal_form
        assert wrapped is not original
        assert verify.normal_form is wrapped
        assert fourier.normal_form is wrapped
        assert splitting.normal_form is wrapped
        assert verify.run_suite(catalog.CATALOG["pg"].build(), seed=0).passed
    finally:
        t.uninstall()
    assert groups.normal_form is original
    assert verify.normal_form is original
    assert groups.QuotientGroup.mul is original_mul
    m = t.metrics()
    assert m["verify.run_suite.calls"] == 1
    assert m["groups.normal_form.calls"] > 0
    assert m["groups.QuotientGroup.mul.calls"] > 0
    assert m["reps.irreps.classes"] > 0
    module_totals = [v for k, v in m.items() if k.endswith(".self_s") and k.count(".") == 1]
    assert sum(module_totals) == pytest.approx(m["top_level_s"], rel=1e-9)


def test_sampler_ticks_inside_a_block_and_counts_its_own_time():
    sampler = speed.Sampler()
    start = time.perf_counter()
    with sampler:
        while time.perf_counter() - start < 0.3:
            pass
    assert len(sampler.ticks) >= 3
    assert 0 < sampler.spent < 0.3
    assert sampler.mean_tick > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    cmd = [sys.executable if c == "python3" else c for c in bench["command"]]
    proc = subprocess.run(cmd + ["--workload", "fourier-io", "--seed", "0",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
