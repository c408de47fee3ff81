"""The four perfbench workloads: inputs from a seed, one timed pass, checks.

A workload has three steps.  `setup(seed)` runs once per process and is
what `setup_s` times.  `inputs(state)` runs before every pass, outside the
timed region; it builds fresh group specs so that no pass reuses a spec,
quotient or irreps cache warmed by an earlier one.  `run(state, inputs)`
is the timed pass and returns, per checked item, whether it was right and
how long it took; an exception fails its item and the pass goes on.

Every euciso call goes through a module attribute (`verify.run_suite`,
never a name imported into this file), so the tracer's rebinding of those
attributes sees the benchmark's own calls as well as the package's.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from euciso import catalog, dual, fourier, groups, io, isometry, reps, verify

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# thresholds the `verify` command applies to the same identities
ROUND_TRIP_TOL = 1e-8
PLANCHEREL_TOL = 1e-8

DUAL_CASES = (("twistE8", 4), ("twistE8-m4", 8))
FOURIER_GROUP, FOURIER_N = "twistE8", 2
FOURIER_SHAPES = ((1, 1), (3, 3))
FOURIER_PER_SHAPE = 40
ROD_KERNELS = range(6, 11)


class WarmCache(RuntimeError):
    """A pass was about to start from a cache an earlier call filled."""


def assert_cold(specs) -> None:
    """Fail unless every spec and the catalog memo are untouched."""
    for name, entry in catalog.CATALOG.items():
        if entry._spec is not None:
            raise WarmCache(f"catalog memo holds a spec for {name}")
    for spec in specs:
        warm = [attr for attr in ("_quotients", "_t_cache", "_t_gen_pow")
                if getattr(spec, attr)]
        warm += [attr for attr in ("_m0_report", "_f_mul", "_f_inv")
                 if getattr(spec, attr) is not None]
        if warm:
            raise WarmCache(f"spec {spec.name} is warm: {', '.join(warm)}")


def fresh_catalog_spec(name: str) -> groups.GroupSpec:
    return catalog.CATALOG[name].build()


def checked(item: Callable[[], bool]) -> tuple[bool, float]:
    """Run and time one item; an exception is a failed item, reported on stderr."""
    start = time.perf_counter()
    try:
        ok = bool(item())
    except Exception:  # noqa: BLE001 - any error fails the item, not the run
        traceback.print_exc()
        ok = False
    return ok, time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    inputs: Callable[[object], object]
    run: Callable[[object, object], list[tuple[bool, float]]]


# -- verify-catalog ------------------------------------------------------------

def _verify_setup(seed: int) -> int:
    return seed


def _verify_inputs(seed: int) -> list[groups.GroupSpec]:
    specs = [fresh_catalog_spec(name) for name in catalog.CATALOG]
    assert_cold(specs)
    return specs


def _verify_run(seed: int, specs) -> list[tuple[bool, float]]:
    return [checked(lambda s=s: verify.run_suite(s, seed=seed).passed) for s in specs]


# -- dual-twistE8 --------------------------------------------------------------

def label_tuples(atlas) -> list[list]:
    return [[r.label.rho_index, [io.format_fraction(x) for x in r.label.k],
             r.label.orbit_size, r.induced_dim, bool(r.irreducible)]
            for r in atlas.labels]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _dual_setup(seed: int) -> tuple[int, dict]:
    return seed, load_reference()


def _dual_inputs(state) -> list[groups.GroupSpec]:
    specs = [fresh_catalog_spec(name) for name, _ in DUAL_CASES]
    assert_cold(specs)
    return specs


def _dual_run(state, specs) -> list[tuple[bool, float]]:
    seed, reference = state

    def item(spec, N):
        atlas = dual.enumerate_dual(spec, N, seed=seed)
        want = reference[f"{spec.name}@{N}"]
        return (all(atlas.checks.values())
                and atlas.census_dims == want["census_dims"]
                and label_tuples(atlas) == want["labels"])

    return [checked(lambda s=s, N=N: item(s, N))
            for s, (_, N) in zip(specs, DUAL_CASES)]


# -- fourier-io ----------------------------------------------------------------

@dataclass
class FourierState:
    seed: int
    q: groups.QuotientGroup
    functions: list


def _fourier_setup(seed: int) -> FourierState:
    spec = fresh_catalog_spec(FOURIER_GROUP)
    assert_cold([spec])
    q = groups.build_quotient(spec, FOURIER_N)
    reps.quotient_irreps(q, seed=seed)
    rng = np.random.default_rng(seed)
    functions = [fourier.PeriodicFunction.random(q, shape, rng)
                 for shape in FOURIER_SHAPES for _ in range(FOURIER_PER_SHAPE)]
    return FourierState(seed, q, functions)


def _fourier_inputs(state: FourierState) -> list:
    return state.functions


def _fourier_run(state: FourierState, functions) -> list[tuple[bool, float]]:
    def item(u):
        table = fourier.transform(u, seed=state.seed)
        text = io.canonical_json(io.table_to_dict(table))
        back = io.table_from_dict(json.loads(text), state.q)
        round_trip = u.max_abs_diff(fourier.inverse_transform(back))
        plancherel = abs(fourier.inner_product(u, u)
                         - fourier.plancherel_pairing(back, back))
        return round_trip <= ROUND_TRIP_TOL and plancherel <= PLANCHEREL_TOL

    return [checked(lambda u=u: item(u)) for u in functions]


# -- analyze-rods --------------------------------------------------------------

def euler_phi(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def rod_spec(k: int, flip: bool, alpha: float) -> groups.GroupSpec:
    """Rod group: screw lift by angle alpha over a C_k rotation kernel.

    The flip reverses the axis and reflects the plane, which inverts every
    kernel rotation, so it normalizes C_k and doubles the point group.
    """
    lift = isometry.Isometry(isometry.rotation2(alpha), ((1,),), (1,))
    kernel = [isometry.rotation2(2 * math.pi * j / k) for j in range(k)]
    p_reps = [isometry.identity_isometry(2, 1)]
    if flip:
        p_reps.append(isometry.Isometry(np.diag([1.0, -1.0]), ((-1,),), (0,)))
    name = f"rod-C{k}" + ("-flip" if flip else "")
    return groups.GroupSpec(name, 2, 1, kernel, [lift], p_reps)


def _rods_setup(seed: int) -> float:
    # a generic screw angle; the structure must not depend on its value
    return float(np.random.default_rng(seed).uniform(0.5, 2.5))


def _rods_inputs(alpha: float) -> list[tuple[int, groups.GroupSpec]]:
    specs = [(k, rod_spec(k, flip, alpha)) for k in ROD_KERNELS for flip in (False, True)]
    assert_cold([s for _, s in specs])
    return specs


def _rods_run(alpha: float, specs) -> list[tuple[bool, float]]:
    def item(k, spec):
        if groups.validate_spec(spec):
            return False
        report = groups.find_m0(spec)
        orders = [groups.build_quotient(spec, n * report.m0).order for n in (1, 2, 3)]
        want = [n * report.m0 * k * spec.rot_order for n in (1, 2, 3)]
        return report.m0_bound == k * k * euler_phi(k) and orders == want

    return [checked(lambda k=k, s=s: item(k, s)) for k, s in specs]


WORKLOADS = {w.name: w for w in (
    Workload("verify-catalog", _verify_setup, _verify_inputs, _verify_run),
    Workload("dual-twistE8", _dual_setup, _dual_inputs, _dual_run),
    Workload("fourier-io", _fourier_setup, _fourier_inputs, _fourier_run),
    Workload("analyze-rods", _rods_setup, _rods_inputs, _rods_run),
)}
