"""Command-line entry point wiring all modules.

Subcommands: solve-dde, first-zero, sieve-verify, density-report, bound,
identity-check, fetch.  JSON is the default output; CSV serves only the
grid outputs (DDE tables and asymptotic reports).  Every run echoes its
parsed configuration so output is reproducible from the header alone.

Exit codes: 0 success, 1 check failure or file error, 2 usage error,
3 data gap, 4 resource limit, 5 network unavailable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds, dde, density, ingest, satake, sieve
from .errors import (DataGapError, InvalidInputError, MaasslabError,
                     ResourceLimitError, RemoteUnavailableError,
                     UnsupportedRangeError)

DEFAULT_SEED = 1729   # fixed, documented; reproducibility over entropy
# smallest sieve-verify --limit in checks mode: the Moebius round trip
# evaluates n = 1 .. 199 in the table
CHECKS_MIN_LIMIT = 199

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA_GAP = 3
EXIT_RESOURCE = 4
EXIT_NETWORK = 5


def _config_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _config_line(args) -> str:
    return "# config: " + json.dumps(_config_dict(args), sort_keys=True)


def _emit_payload(payload: dict, args) -> None:
    """Scalar results: one line of JSON by default, aligned key/value in
    table mode."""
    if (getattr(args, "format", None) or "json") == "table":
        width = max(len(k) for k in payload)
        text = "\n".join([_config_line(args),
                          *(f"{k:<{width}}  {v}" for k, v in payload.items())])
    else:
        text = json.dumps({"config": _config_dict(args), **payload}, sort_keys=True)
    _write_out(args, text + "\n")


def _emit_grid(header: list[str], rows: list[tuple], args) -> None:
    """Grid results: CSV by default, JSON rows or aligned table on request."""
    fmt = getattr(args, "format", None) or "csv"
    if fmt == "json":
        _emit_payload({"columns": header,
                       "rows": [list(r) for r in rows]}, args)
        return
    cells = [header] + [[_csv_cell(v) for v in row] for row in rows]
    if fmt == "table":
        widths = [max(len(c[i]) for c in cells) for i in range(len(header))]
        lines = ["  ".join(v.ljust(w) for v, w in zip(c, widths)) for c in cells]
    else:
        lines = [",".join(c) for c in cells]
    _write_out(args, "\n".join([_config_line(args), *lines]) + "\n")


def _comma_list(text: str, kind, option: str) -> list:
    """The comma-separated items of an option's value, each converted by
    kind (int, float or str); an empty item, or one that does not
    convert, is a usage error naming the option and the item."""
    noun = {int: "integers", float: "numbers", str: "labels"}[kind]
    out = []
    for item in text.split(","):
        try:
            if not item:
                raise ValueError
            out.append(kind(item))
        except ValueError:
            raise InvalidInputError(
                f"{option} takes comma-separated {noun}, got {item!r}") from None
    return out


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_out(args, *parts: str) -> None:
    """Write the parts in order, without joining them first."""
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _cmd_solve_dde(args) -> int:
    if args.stride < 1:
        raise InvalidInputError(f"--stride must be >= 1, got {args.stride}")
    spec = dde.DdeSpec(args.chi0, args.chi1)
    sol = dde.solve(spec, args.u_max, args.step)
    rows = []
    for i in range(0, sol._node_count(), args.stride):
        u, sig = sol._node(i)
        if u > args.u_max + 1e-12:
            break                        # nodes() runs in increasing u
        rows.append((u, sig))
    _emit_grid(["u", "sigma"], rows, args)
    return EXIT_OK


def _cmd_first_zero(args) -> int:
    spec = dde.DdeSpec(args.chi0, args.chi1)
    zero = dde.first_zero(spec, tol=args.tol, u_cap=args.u_cap,
                          initial_step=args.initial_step)
    _emit_payload({"first_zero": zero}, args)
    return EXIT_OK


def _cmd_sieve_verify(args) -> int:
    if args.report == "checks" and args.limit < CHECKS_MIN_LIMIT:
        raise InvalidInputError(f"--limit must be >= {CHECKS_MIN_LIMIT} in "
                                f"checks mode, got {args.limit}")
    if args.report == "asymptotic":
        # no table: --limit and --allow-large only bound t
        sieve.check_limit(args.limit, args.allow_large)
        u_grid = _comma_list(args.u_grid, float, "--u-grid")
        rows = sieve.asymptotic_report(args.y, u_grid, args.q,
                                       (args.chi0, args.chi1), limit=args.limit)
        _emit_grid(["y", "u", "exact", "predicted", "rel_error"],
                   [(r["y"], r["u"], r["exact"], r["predicted"], r["rel_error"])
                    for r in rows], args)
        return EXIT_OK
    table = sieve.build_table(args.limit, allow_large=args.allow_large)

    rng = np.random.default_rng(args.seed)
    checks = []

    spec10 = sieve.MultFuncSpec.threshold(10, 2, -2)
    checks.append(("h_sum_y10_q1",
                   sieve.h_sum(spec10, 10, 1) == 17.0))
    checks.append(("h_sum_y10_q6",
                   sieve.h_sum(spec10, 10, 6) == 5.0))

    if args.samples < 1:
        raise InvalidInputError(f"--samples must be >= 1, got {args.samples}")
    ok_brute = True
    for _ in range(args.samples):
        y = int(rng.integers(5, 200))
        chi0 = float(rng.integers(1, 4))
        chi1 = -float(rng.integers(1, 4))
        x = float(rng.integers(10, min(table.limit, 5000)))
        spec = sieve.MultFuncSpec.threshold(max(y, 2), chi0, chi1)
        m = int(x)
        vals = sieve.values_upto(spec, m, 1, table)[1:]
        terms = vals * (math.log(x) - np.log(np.arange(1, m + 1)))
        # the direct-sum bound of the log_weighted_sum docstring, gamma_n
        # = n u / (1 - n u); its gamma_(K+6) part covers fsum's rounding
        # and that of the bound's own np.sum many times over
        g_vals, g_sum = (n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
                         for n in (m.bit_length() + 6, m - 1))
        bound = (g_vals * math.log(x) * float(np.sum(np.abs(vals)))
                 + g_sum * float(np.sum(np.abs(terms))))
        want = math.fsum(terms.tolist())
        if not abs(sieve.log_weighted_sum(spec, x, 1, table) - want) <= bound:
            ok_brute = False
            break
    checks.append(("log_weighted_brute_force", ok_brute))

    a_stream, _, _ = satake.sample_coeff_triples(200, "sato-tate", args.seed)
    b_stream, _, _ = satake.sample_coeff_triples(200, "sato-tate", args.seed + 1)
    b_table = {int(p): float(a + b) for p, a, b in
               zip(sieve.primes_upto(1000).tolist(), a_stream, b_stream)}
    b = sieve.MultFuncSpec.from_table(b_table)
    h = sieve.MultFuncSpec.threshold(50, 2, -2)
    g = sieve.MultFuncSpec.moebius_quotient(b, h)
    ok_round = all(
        sieve.dirichlet_convolve(h, g, n, table) == b.value_exact(n, table)
        for n in range(1, 200) if table.is_squarefree(n))
    checks.append(("moebius_roundtrip", ok_round))

    ok_cancel = True
    for _ in range(100):
        a1 = float(rng.normal()) * 3
        a2 = float(rng.normal()) * 3
        coeffs = sieve.local_factor_coeffs(a1, a2, 101)
        if coeffs[1] != 0:
            ok_cancel = False
            break
    checks.append(("local_factor_x1_cancellation", ok_cancel))

    payload = {"checks": [{"name": n, "passed": bool(okp)} for n, okp in checks],
               "all_passed": all(okp for _, okp in checks)}
    _emit_payload(payload, args)
    return EXIT_OK if payload["all_passed"] else EXIT_FAIL


def _cmd_density_report(args) -> int:
    if args.scan_labels:
        labels = _comma_list(args.scan_labels, str, "--scan-labels")
        for i, lab in enumerate(labels):
            if lab in labels[:i]:
                raise InvalidInputError(
                    f"--scan-labels names {lab!r} twice; a family needs distinct forms")
        records = [ingest.fetch(lab, coverage=args.coverage,
                                cache_dir=args.cache_dir) for lab in labels]
        family = density.FormFamily([r.to_form_meta() for r in records])
        report = density.exceptional_scan(family, args.x)
        _emit_payload(report.to_json_dict(), args)
        return EXIT_OK
    bound = density.density_lower_bound(args.m, args.formula)
    payload = {
        "m": args.m,
        "formula": args.formula,
        "density_lower_bound": f"{bound.numerator}/{bound.denominator}",
        "value": float(bound),
    }
    if args.formula == "remark":
        payload["status"] = density.REMARK_VARIANT_NOTE
    _emit_payload(payload, args)
    return EXIT_OK


def _cmd_bound(args) -> int:
    levels = _comma_list(args.levels, int, "--levels")
    ts = _comma_list(args.spectral, float, "--spectral")
    if len(levels) != len(ts):
        raise InvalidInputError(
            f"{len(levels)} levels but {len(ts)} spectral parameters")
    metas = [bounds.FormMeta(level=n, spectral_parameter=t)
             for n, t in zip(levels, ts)]
    result = bounds.least_prime_bound(metas)
    _emit_payload(result.to_json_dict(), args)
    return EXIT_OK


def _cmd_identity_check(args) -> int:
    if args.samples < 2:
        raise InvalidInputError(f"--samples must be >= 2, got {args.samples}")
    per_mode = args.samples // 2
    b2, _, b4 = satake.sample_coeff_triples(per_mode, "sato-tate", args.seed + 1)
    worst = np.zeros(3)           # np.maximum keeps a NaN residual
    for mode in ("sato-tate", "non-tempered"):
        a2, a3sq, a4 = satake.sample_coeff_triples(per_mode, mode, args.seed,
                                                   nu_max=args.nu_max)
        residuals = (*satake.identity_residuals(a2, a3sq, a4),
                     density.weight_residual(a2, a3sq, a4, b2, b4))
        worst = np.maximum(worst, [np.max(r) for r in residuals])
    worst_sq, worst_cube, worst_exp = worst.tolist()
    payload = {
        "samples": 2 * per_mode,
        "max_square_identity_residual": worst_sq,
        "max_cube_identity_residual": worst_cube,
        "max_expansion_residual": worst_exp,
        "thresholds": {"identities": 1e-10, "expansion": 1e-9},
    }
    passed = (worst_sq < 1e-10 and worst_cube < 1e-10 and worst_exp < 1e-9)
    payload["passed"] = passed
    _emit_payload(payload, args)
    return EXIT_OK if passed else EXIT_FAIL


def _cmd_fetch(args) -> int:
    record = ingest.fetch(args.label, coverage=args.coverage,
                          cache_dir=args.cache_dir, endpoint=args.endpoint)
    findings = ingest.validate(record)
    errors = [f for f in findings if f.severity == "error"]
    payload = {"findings": [{"severity": f.severity, "kind": f.kind,
                             "p": f.p, "message": f.message}
                            for f in findings]}
    if args.format == "table":
        _emit_payload({"record": record.to_json_dict(), **payload}, args)
    else:
        # "record" sorts after "config" and "findings": the record's text
        # goes in last, in place of the closing brace
        head = json.dumps({"config": _config_dict(args), **payload}, sort_keys=True)
        _write_out(args, head[:-1], ', "record": ', *record.json_pieces(), "}\n")
    return EXIT_OK if not errors else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maasslab",
        description="Satake coefficient algebra, sieve delay differential "
                    "equations and prime-density scans")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default=None,
                       help="output format (scalars: json, the default, or table; "
                            "grids: csv, the default, json or table)")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("solve-dde", help="integrate a delay differential equation")
    p.add_argument("--chi0", type=float, required=True,
                   help="weight on primes up to the cutoff (dimensionless)")
    p.add_argument("--chi1", type=float, required=True,
                   help="weight beyond the cutoff (dimensionless, negative)")
    p.add_argument("--u-max", type=float, default=3.0,
                   help="right end of the integration range (u-units)")
    p.add_argument("--step", type=float, default=1e-3,
                   help="grid step (u-units, in [1e-7, 1e-2])")
    p.add_argument("--stride", type=int, default=1,
                   help="emit every stride-th grid node (count)")
    common(p)
    p.set_defaults(func=_cmd_solve_dde)

    p = sub.add_parser("first-zero", help="first zero of sigma(u)")
    p.add_argument("--chi0", type=float, required=True,
                   help="weight on primes up to the cutoff (dimensionless)")
    p.add_argument("--chi1", type=float, required=True,
                   help="weight beyond the cutoff (dimensionless, negative)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="zero-location tolerance (u-units, >= 1e-9)")
    p.add_argument("--u-cap", type=float, default=10.0,
                   help="give up if no sign change below this u (u-units)")
    p.add_argument("--initial-step", type=float, default=1e-3,
                   help="first integration step before refinement (u-units)")
    common(p)
    p.set_defaults(func=_cmd_first_zero)

    p = sub.add_parser("sieve-verify", help="run sieve cross-checks or the "
                                            "asymptotic report")
    p.add_argument("--limit", type=int, default=10 ** 5,
                   help="factorization table limit (integer)")
    p.add_argument("--allow-large", action="store_true",
                   help="permit table limits above 10^7 (up to 2*10^8)")
    p.add_argument("--report", choices=("checks", "asymptotic"),
                   default="checks", help="which report to produce")
    p.add_argument("--samples", type=int, default=100,
                   help="random specs of the brute-force check (count)")
    p.add_argument("--y", type=int, default=1000,
                   help="threshold cutoff for the asymptotic report (integer)")
    p.add_argument("--u-grid", default="0.5,1.0,1.5",
                   help="comma-separated u values (u-units)")
    p.add_argument("--q", type=int, default=1,
                   help="coprimality modulus (integer)")
    p.add_argument("--chi0", type=float, default=2.0,
                   help="weight on primes up to y (dimensionless)")
    p.add_argument("--chi1", type=float, default=-2.0,
                   help="weight beyond y (dimensionless, negative)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="random seed (dimensionless integer)")
    common(p)
    p.set_defaults(func=_cmd_sieve_verify)

    p = sub.add_parser("density-report", help="density lower bounds and scans")
    p.add_argument("--m", type=int, default=2,
                   help="number of forms in the family (count)")
    p.add_argument("--formula", choices=("paper", "remark"), default="paper",
                   help="which lower-bound formula to evaluate")
    p.add_argument("--scan-labels",
                   help="comma-separated record labels; triggers a prime scan")
    p.add_argument("--x", type=int, default=10 ** 4,
                   help="scan limit X: primes up to X (integer)")
    p.add_argument("--coverage", type=int, default=ingest.DEFAULT_COVERAGE,
                   help="coefficient coverage when fetching records (integer)")
    p.add_argument("--cache-dir", help="record cache directory (path)")
    common(p)
    p.set_defaults(func=_cmd_density_report)

    p = sub.add_parser("bound", help="least-prime bound pair for 2 or 3 forms")
    p.add_argument("--levels", required=True,
                   help="comma-separated levels N_i (integers)")
    p.add_argument("--spectral", required=True,
                   help="comma-separated spectral parameters t_i (real)")
    common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("identity-check", help="bulk Hecke-identity sweep")
    p.add_argument("--samples", type=int, default=10 ** 5,
                   help="number of sampled local data (count)")
    p.add_argument("--nu-max", type=float, default=satake.KIM_SARNAK_NU,
                   help="largest non-tempered deviation (in (0, 7/64])")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="random seed (dimensionless integer)")
    common(p)
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("fetch", help="fetch a coefficient record")
    p.add_argument("--label", required=True, help="record label (string)")
    p.add_argument("--coverage", type=int, default=ingest.DEFAULT_COVERAGE,
                   help="largest prime to cover (integer)")
    p.add_argument("--cache-dir", help="record cache directory (path)")
    p.add_argument("--endpoint", help="remote endpoint URL (overrides env)")
    common(p)
    p.set_defaults(func=_cmd_fetch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:     # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        grid = (args.command == "solve-dde"
                or getattr(args, "report", "") == "asymptotic")
        if args.format == "csv" and not grid:
            raise InvalidInputError(
                f"--format csv is for grid outputs; {args.command} prints "
                "a scalar payload, use --format json or --format table")
        return args.func(args)
    except (InvalidInputError, UnsupportedRangeError) as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataGapError as exc:
        print(f"error: data-gap: {exc}", file=sys.stderr)
        return EXIT_DATA_GAP
    except ResourceLimitError as exc:
        print(f"error: resource-limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RemoteUnavailableError as exc:
        print(f"error: network-unavailable: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except MaasslabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:      # a cache or output path that cannot be used
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
