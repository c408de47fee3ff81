"""Batch front door: analyze, dual, fourier, split, verify.

Group specs come from JSON files or from the built-in catalog via the
catalog:<name> form.  All reports are canonical JSON, written to stdout
or to --out; runs with the same seed are byte-identical.

Exit codes: 0 ok, 1 verify failure, 2 invalid spec or format,
3 I/O error, 4 solver cap exceeded, 5 incompatible files,
6 failed split certificate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import catalog, io
from .dual import enumerate_dual
from .errors import (BadModulus, CapExceeded, EucisoError, IncompatibleShapes,
                     IncompleteTable, NotCoprime)
from .fourier import (inner_product, inverse_transform, plancherel_pairing,
                      transform)
from .groups import GroupSpec, build_quotient, find_m0, validate_spec
from .io import canonical_json, format_fraction
from .reps import IDENTITY_TOL
from .splitting import split_quotient
from .verify import run_suite

EXIT_VERIFY = 1
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_CAP = 4
EXIT_INCOMPATIBLE = 5
EXIT_CERT = 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def resolve_spec(ref: str, tol: float | None) -> GroupSpec:
    if ref.startswith("catalog:"):
        name = ref.split(":", 1)[1]
        try:
            spec = catalog.get(name)
        except KeyError as exc:
            raise CliError(EXIT_IO, exc.args[0]) from exc
    else:
        try:
            spec = io.load_spec(ref)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot read spec: {exc}") from exc
        except (EucisoError, json.JSONDecodeError) as exc:
            raise CliError(EXIT_SPEC, f"cannot parse spec: {exc}") from exc
    if tol is not None:
        spec = GroupSpec(spec.name, spec.d1, spec.d2, spec.f_elements,
                         spec.t_lifts, spec.p_reps, tol=tol)
    return spec


def require_valid(spec: GroupSpec) -> None:
    violations = validate_spec(spec)
    if violations:
        lines = [f"{v.code}: {v.message}" for v in violations]
        raise CliError(EXIT_SPEC, "invalid group spec:\n  " + "\n  ".join(lines))


def emit(payload: dict, out: str | None) -> None:
    text = canonical_json(payload)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    spec = resolve_spec(args.spec, args.tol)
    violations = validate_spec(spec)
    payload = {
        "name": spec.name,
        "valid": not violations,
        "violations": [{"code": v.code, "message": v.message} for v in violations],
    }
    if violations:
        emit(payload, args.out)
        return EXIT_SPEC
    report = find_m0(spec)
    n_list = _parse_n_list(args.N) if args.N else [report.m0, 2 * report.m0,
                                                   3 * report.m0]
    orders = {}
    for n in n_list:
        try:
            orders[str(n)] = build_quotient(spec, n).order
        except BadModulus as exc:
            raise CliError(EXIT_SPEC, str(exc)) from exc
    payload.update({
        "m0": report.m0,
        "m0_bound": report.m0_bound,
        "is_space_group": report.is_space_group,
        "orders": {"F": report.f_order, "rot_S": report.rot_order},
        "group_orders": orders,
    })
    emit(payload, args.out)
    return 0


def cmd_dual(args) -> int:
    spec = resolve_spec(args.spec, args.tol)
    require_valid(spec)
    n = _single_n(args.N, spec)
    try:
        atlas = enumerate_dual(spec, n, seed=args.seed)
    except BadModulus as exc:
        raise CliError(EXIT_SPEC, str(exc)) from exc
    payload = {
        "name": spec.name,
        "N": n,
        "seed": args.seed,
        "m0": atlas.rep_set.m0,
        "rep_set_size": len(atlas.rep_set.classes),
        "labels": [{
            "rho_index": r.label.rho_index,
            "k": [format_fraction(x) for x in r.label.k],
            "orbit_size": r.label.orbit_size,
            "in_null_set": r.label.in_null_set,
            "induced_dim": r.induced_dim,
            "irreducible": r.irreducible,
            "char_norm": round(r.char_norm, 9),
            "decomposition": {str(k): v for k, v in sorted(r.decomposition.items())},
        } for r in atlas.labels],
        "census_dims": atlas.census_dims,
        "checks": atlas.checks,
    }
    emit(payload, args.out)
    return 0


def cmd_fourier(args) -> int:
    spec = resolve_spec(args.spec, args.tol)
    require_valid(spec)
    try:
        with open(args.function) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read function file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_SPEC, f"malformed function file: {exc}") from exc
    try:
        q = build_quotient(spec, io.json_int(data["N"], "N", 1))
        if args.inverse:
            table = io.table_from_dict(data, q)
            payload = io.function_to_dict(inverse_transform(table))
        else:
            # the atlas first, so that an order past the table cap fails before u is allocated
            enumerate_dual(spec, q.N, seed=args.seed)
            u = io.function_from_dict(data, q)
            table = transform(u, seed=args.seed)
            payload = io.table_to_dict(table)
            if args.check:
                lhs = inner_product(u, u)
                rhs = plancherel_pairing(table, table)
                payload["plancherel_check"] = {
                    "norm_sq": lhs.real,
                    "table_norm_sq": rhs.real,
                    "abs_error": abs(lhs - rhs),
                    "passed": abs(lhs - rhs) <= IDENTITY_TOL,
                }
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_SPEC, f"malformed function file: {exc}") from exc
    except (IncompatibleShapes, IncompleteTable, BadModulus) as exc:
        raise CliError(EXIT_INCOMPATIBLE, str(exc)) from exc
    emit(payload, args.out)
    return 0


def cmd_split(args) -> int:
    spec = resolve_spec(args.spec, args.tol)
    require_valid(spec)
    try:
        cert = split_quotient(spec, args.m, args.n)
    except (NotCoprime, BadModulus) as exc:
        raise CliError(EXIT_SPEC, str(exc)) from exc
    payload = {
        "name": spec.name,
        "m": cert.m,
        "n": cert.n,
        "N": cert.N,
        "a_coefficient": cert.a,
        "orders": {"normal": cert.normal_order,
                   "complement": cert.complement_order,
                   "group": cert.group_order},
        "direct_product": cert.direct_product,
        "passed": cert.passed,
        "checks": _checks(cert.checks),
        "normal_part": [_nf_dict(nf) for nf in cert.normal_part],
        "complement_part": [_nf_dict(nf) for nf in cert.complement_part],
    }
    emit(payload, args.out)
    return 0 if cert.passed else EXIT_CERT


def cmd_verify(args) -> int:
    spec = resolve_spec(args.spec, args.tol)
    report = run_suite(spec, seed=args.seed)
    payload = {
        "name": spec.name,
        "passed": report.passed,
        "checks": _checks(report.checks),
    }
    failure = report.first_failure()
    if failure:
        payload["first_failure"] = failure.name
    emit(payload, args.out)
    return 0 if report.passed else EXIT_VERIFY


def cmd_catalog(args) -> int:
    payload = {name: {"summary": entry.summary, "expected": entry.expected}
               for name, entry in catalog.CATALOG.items()}
    emit(payload, args.out)
    return 0


def _checks(checks) -> list[dict]:
    return [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks]


def _nf_dict(nf) -> dict:
    return {"n": list(nf.n), "f": nf.f, "p": nf.p}


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(x) for x in str(text).split(",") if x]
    except ValueError as exc:
        raise CliError(EXIT_SPEC, f"bad N list {text!r}") from exc


def _single_n(text, spec: GroupSpec) -> int:
    if text is None:
        return find_m0(spec).m0
    if str(text) == "m0":
        return find_m0(spec).m0
    try:
        return int(text)
    except ValueError as exc:
        raise CliError(EXIT_SPEC, f"bad N value {text!r}") from exc


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def positive_tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euciso",
        description="structure, duals, Fourier calculus and splittings of "
                    "discrete Euclidean isometry groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("spec", help="spec JSON path or catalog:<name>")
        if seeded:      # analyze and split draw nothing at random
            p.add_argument("--seed", type=non_negative_int, default=0)
        p.add_argument("--tol", type=positive_tolerance, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("analyze", help="validation, m0, orders")
    common(p, seeded=False)
    p.add_argument("--N", default=None, help="comma-separated quotient levels")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("dual", help="wave-label atlas of one quotient")
    common(p)
    p.add_argument("--N", default=None, help="quotient level (default m0)")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("fourier", help="transform or invert a function file")
    common(p)
    p.add_argument("function", help="function or table JSON path")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="attach a Plancherel self-test to the output")
    p.set_defaults(fn=cmd_fourier)

    p = sub.add_parser("split", help="semidirect decomposition certificate")
    common(p, seeded=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("verify", help="run the full invariant suite")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("catalog", help="list built-in groups")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except EucisoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
