"""Cross-module invariant suite run by the `verify` command.

Each check re-derives one contract on the given group at desk scale and
reports pass/fail with a short detail string.  The first failure names
the violated invariant; the command exits nonzero if any check fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import isometry as iso
from .dual import enumerate_dual, fixed_by_a_point_part
from .errors import CapExceeded, EucisoError, InternalInconsistency
from .fourier import (PeriodicFunction, SummableFunction, convolve,
                      inner_product, inverse_transform, kron_stack, plancherel_pairing,
                      transform, translate)
from .groups import (GroupSpec, build_quotient, find_m0, grid_points, is_power_normal,
                     normal_form, normal_forms, normal_forms_of, validate_spec)
from .reps import IDENTITY_TOL, STRUCT_TOL, char_inner, irreps
from .splitting import CheckResult, Checked, cocycle, split_quotient, verify_certificate


# largest orthogonality defect of the q block along a chain of 30 compositions
ORTH_DRIFT_TOL = 100 * np.finfo(float).eps * 60


@dataclass
class VerifyReport(Checked):
    spec_name: str
    checks: list[CheckResult]

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None


def _versus(label: str, value: float, tol: float) -> str:
    return f"{label} {value:.2e} vs tol {tol:.3g}"


def _section_ids(q, blocks: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Quotient ids, by `normal_forms`, of the members with q blocks `blocks`,
    translation parts n (a (k, d2) exponent stack) and trivial point part."""
    spec = q.spec
    p = [spec.p_identity] * len(n)
    return q.ids(*normal_forms(spec, blocks, p, spec.points[0] * n), p)


def _table_products_agree(q, a: np.ndarray, b: np.ndarray) -> bool:
    """True iff the quotient's t(a) t(b) is the member factored from the stack
    section_q(a) @ section_q(b), for (k, d2) exponent stacks a and b."""
    qa, qb = q.spec.section_q(a), q.spec.section_q(b)
    ia, ib, iab = _section_ids(q, np.concatenate([qa, qb, qa @ qb]),
                               np.concatenate([a, b, a + b])).reshape(3, len(a))
    return bool((q.products(ia, ib) == iab).all())


def _generated_order(q) -> int:
    """How many ids the generators' columns of products reach from the identity,
    or 0 unless each column permutes the ids; a round costs O(order * generators)."""
    n, columns = q.order, q.products(q.local[:, None], q.generators)
    if not (np.sort(columns, axis=0) == q.local[:, None]).all():
        return 0
    reached = np.zeros(n, dtype=bool)
    reached[q.identity] = True
    while not reached[columns[reached]].all():
        reached[columns[reached]] = True
    return int(reached.sum())


def run_suite(spec: GroupSpec, seed: int = 0) -> VerifyReport:
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    violations = validate_spec(spec)
    checks.append(CheckResult(
        "spec-valid", not violations,
        "; ".join(f"{v.code}: {v.message}" for v in violations[:3])))
    if violations:
        return VerifyReport(spec.name, checks)

    report = find_m0(spec)
    m0 = report.m0
    checks.append(CheckResult("m0-in-ladder",
                              is_power_normal(spec, m0) and is_power_normal(spec, 2 * m0),
                              f"m0 = {m0}"))

    # order formula: the generators' columns of products reach N^d2 |F| |P|
    # ids.  Section bijectivity: for every a in [0, N)^d2 and every j, the
    # product t(a) t(e_j) is the member factored from their q blocks, so the
    # spec's presentation is checked against float factoring at both N.  The
    # m0 table is built first, as the solver and the atlas read it, so these
    # checks read it there and evaluate the formula pair by pair at 2 m0.
    # The spot check draws its own triples, not the ones `mult_table`
    # checked; a table it finds broken is reported after these two checks
    # and ends the suite.  So does an m0 table that fails its own check as
    # it is built, and a quotient past the table cap, which gets no products
    ok_orders, ok_section, spot_failure = True, True, None
    spot = np.random.default_rng([seed, 1])
    try:
        build_quotient(spec, m0).mult_table()
        for N in (m0, 2 * m0):
            q = build_quotient(spec, N)
            try:
                q.spot_check(spot)
            except InternalInconsistency as exc:
                spot_failure = spot_failure or str(exc)
            ok_orders &= _generated_order(q) == N ** spec.d2 * spec.f_order * spec.rot_order
            grid = grid_points(N, spec.d2)
            units = np.tile(np.eye(spec.d2, dtype=np.int64), (len(grid), 1))
            ok_section &= _table_products_agree(q, np.repeat(grid, spec.d2, axis=0), units)
    except (InternalInconsistency, CapExceeded) as exc:
        checks.append(CheckResult("quotient-spot-check", False, spot_failure or str(exc)))
        return VerifyReport(spec.name, checks)
    checks.append(CheckResult("quotient-order-formula", ok_orders))
    checks.append(CheckResult("section-bijectivity", ok_section))
    if spot_failure:
        checks.append(CheckResult("quotient-spot-check", False, spot_failure))
        return VerifyReport(spec.name, checks)

    # mod-N reduction soundness: the table's t(n) t(N e_j) for 8 draws n in
    # [-2N, 2N]^d2, and its t(a) t(b) for 8 pairs with exponents outside
    # [0, N), drawn from their own rng so that the later checks keep their draws
    q = build_quotient(spec, m0)
    n, steps = np.zeros((2, 8 if spec.d2 else 0, spec.d2), dtype=np.int64)
    for i in range(len(n)):
        n[i] = [rng.integers(-2 * m0, 2 * m0 + 1) for _ in range(spec.d2)]
        steps[i, rng.integers(spec.d2)] = m0
    wrap = np.random.default_rng([seed, 2])
    a, b = (wrap.integers(m0, size=(8, spec.d2)) + m0 * wrap.choice([-2, -1, 1, 2], (8, spec.d2))
            for _ in range(2))
    checks.append(CheckResult("mod-N-soundness", _table_products_agree(
        q, np.concatenate([n, a]), np.concatenate([steps, b]))))

    # composition exactness and associativity; the chain of 30 generators and
    # each drawn triple are also multiplied in the table, whose ids list the
    # generators in the same order.  The composed triples are factored in one
    # stack, and the id triples multiplied in one request per factor
    gens, gen_ids = spec.generators(), q.generators
    drift, chain_ids = 0.0, []
    chain = iso.identity_isometry(spec.d1, spec.d2)
    for _ in range(30):
        i = int(rng.integers(len(gens)))
        chain = iso.compose(chain, gens[i])
        chain_ids.append(int(gen_ids[i]))
        drift = max(drift, iso.orth_deviation(chain.q))
    nf = normal_form(spec, chain)
    ok_chain = int(q.ids(nf.n, nf.f, nf.p)) == functools.reduce(q.mul, chain_ids, q.identity)
    triples = np.array([[int(rng.integers(len(gens))) for _ in range(3)] for _ in range(8)])
    lhs, close = [], []
    for a, b, c in triples:
        lhs.append(iso.compose(iso.compose(gens[a], gens[b]), gens[c]))
        rhs = iso.compose(gens[a], iso.compose(gens[b], gens[c]))
        close.append(iso.approx_equal(lhs[-1], rhs, 10 * spec.tol))
    a, b, c = gen_ids[triples.T]
    checks.append(CheckResult("composition-associativity", ok_chain and all(close) and np.array_equal(
        q.products(q.products(a, b), c), q.ids(*normal_forms_of(spec, lhs)))))
    checks.append(CheckResult("orthogonality-drift", drift <= ORTH_DRIFT_TOL,
                              _versus("max deviation", drift, ORTH_DRIFT_TOL)))

    # irreducible decomposition at m0, by the regular-representation solver
    try:
        irr = irreps(q, seed=seed)
        complete = sum(r.dim ** 2 for r in irr) == q.order
        gram = np.array([[char_inner(a, b) for b in irr] for a in irr])
        worst = float(np.abs(gram - np.eye(len(irr))).max())
        checks.append(CheckResult("irrep-completeness", complete,
                                  f"sum d^2 = {sum(r.dim ** 2 for r in irr)} vs {q.order}"))
        checks.append(CheckResult("irrep-orthogonality", worst < STRUCT_TOL,
                                  _versus("max |Gram - I|", worst, STRUCT_TOL)))
    except EucisoError as exc:
        checks.append(CheckResult("irrep-completeness", False, str(exc)))
        return VerifyReport(spec.name, checks)

    # dual atlas at m0, and its irreducibles against the solver's; the Fourier
    # checks below compute in the atlas's irreducibles, so they need it
    try:
        atlas = enumerate_dual(spec, m0, seed=seed)
        for name, okc in atlas.checks.items():
            checks.append(CheckResult(f"atlas-{name}", okc, f"N = {m0}"))
        dims = [r.dim for r in atlas.irreps]
        if dims == [r.dim for r in irr]:
            worst = max(float(np.abs(a.char - b.char).max()) for a, b in zip(atlas.irreps, irr))
            checks.append(CheckResult("atlas-oracle-characters", worst <= STRUCT_TOL,
                                      _versus("max |chi_atlas - chi_solver|", worst, STRUCT_TOL)))
        else:
            checks.append(CheckResult("atlas-oracle-characters", False,
                                      f"{len(dims)} atlas vs {len(irr)} solver irreducibles; "
                                      "dims differ"))
    except EucisoError as exc:
        checks.append(CheckResult("atlas", False, str(exc)))
        return VerifyReport(spec.name, checks)

    # null-set shift relation: 200 pairs (k, k2) with k2 = D k - shift, as one
    # integer stack over den = lcm(1..12, m0); entries of k are at most 12, so
    # the numerators stay far inside int64
    den = math.lcm(*range(1, 13), m0)
    k = rng.integers(-12, 13, (200, spec.d2)) * (den // rng.integers(1, 13, (200, spec.d2)))
    d = spec.dual_points[rng.integers(spec.rot_order, size=200)]
    shift = rng.integers(-3, 4, (200, spec.d2)) * (den // m0)
    member = fixed_by_a_point_part(
        spec, np.concatenate([k, np.einsum("nij,nj->ni", d, k) - shift]), den)
    checks.append(CheckResult("null-set-shift-relation",
                              bool((member[:200] == member[200:]).all())))

    # Fourier: plancherel, round trip, translation, convolution
    rngf = np.random.default_rng(seed + 1)
    u = PeriodicFunction.random(q, (2, 2), rngf)
    v = PeriodicFunction.random(q, (2, 2), rngf)
    ut, vt = transform(u, seed=seed), transform(v, seed=seed)
    err = abs(inner_product(u, v) - plancherel_pairing(ut, vt))
    checks.append(CheckResult("plancherel", err <= IDENTITY_TOL,
                              _versus("max err", err, IDENTITY_TOL)))
    err = u.max_abs_diff(inverse_transform(ut))
    checks.append(CheckResult("round-trip", err <= IDENTITY_TOL,
                              _versus("max err", err, IDENTITY_TOL)))
    # translation: u_hat(rho) (I (x) rho(g^-1)), the Kronecker factors of one
    # dimension built at once from its stack's row g^-1
    g = int(rngf.integers(q.order))
    tut, g_inv = transform(translate(u, g), seed=seed), q.inv(g)
    shifted = [factor for stack in ut.atlas.stacks.values()
               for factor in kron_stack(np.eye(u.shape[1]), stack[g_inv])]
    worst = max(float(np.abs(tut.entries[ri] - ut.entries[ri] @ shifted[ri]).max())
                for ri in range(len(ut.atlas.dims)))
    checks.append(CheckResult("translation-identity", worst <= IDENTITY_TOL,
                              _versus("max err", worst, IDENTITY_TOL)))
    s = SummableFunction.random(spec, (2, 2), terms=min(4, SummableFunction.available(spec, 3)),
                                span=3, rng=rngf)
    conv = convolve(s, v)
    convt, series = transform(conv, seed=seed), s.transform_at(vt.atlas)
    worst = max(float(np.abs(convt.entries[ri] - series[ri] @ vt.entries[ri]).max())
                for ri in range(len(vt.atlas.dims)))
    checks.append(CheckResult("convolution-identity", worst <= IDENTITY_TOL,
                              _versus("max err", worst, IDENTITY_TOL)))

    # splitting
    try:
        cocycle(spec)
        checks.append(CheckResult("cocycle-integrality", True))
    except EucisoError as exc:
        checks.append(CheckResult("cocycle-integrality", False, str(exc)))
    n = 2
    while math.gcd(n, m0 * spec.rot_order) != 1:
        n += 1
    try:
        cert = split_quotient(spec, m0, n)
        checks.append(CheckResult("split-certificate", cert.passed,
                                  f"m = {m0}, n = {n}"))
        checks.append(CheckResult("split-reverify", verify_certificate(spec, cert)))
    except EucisoError as exc:
        checks.append(CheckResult("split-certificate", False, str(exc)))

    return VerifyReport(spec.name, checks)
