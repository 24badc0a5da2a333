"""Command-line front end: censuses, trace reports, coefficient tables,
genus-1 data, Satake identities and congruence checks.

The library decides which inputs are invalid and raises InvalidInput (a
ValueError) for them, and the parser raises it for a malformed command
line; main only maps errors to exit codes: 0 ok, 3 InvalidInput,
2 FieldTooLarge or CacheError (a missing, unbuildable or corrupt census),
1 anything else (a failed verdict, a broken invariant).  `harder --row`
exits 4 when the row is untestable (no eigenvalue data in reach).
All numeric output is exact; --json output is byte-stable (sorted keys,
canonical rational strings).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exact_arith import InvalidInput


def _emit(args, payload: dict, cite: str | None = None, lines: list[str] | None = None) -> None:
    """Print payload as JSON, or else as the given lines (by default one
    "key: value" line per entry), then the --cite line."""
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        if lines is None:
            lines = [f"{key}: {val}" for key, val in payload.items()]
        for line in lines:
            print(line)
    if args.cite and cite:
        print(f"reproduces: {cite}")


def cmd_census(args) -> int:
    from . import census

    if args.genus == 1:
        c = census.ell_census(args.q)
        kind, cite = "ell", "mass identity sum 1/#Aut = q over elliptic curves"
    else:
        c = census.g2_census(args.q)
        kind, cite = "g2", "genus-2 mass formula (total mass q^3)"
    payload = {"q": args.q, "kind": kind, "mass": str(c.mass_sum()), "model_count": c.model_count}
    if args.genus == 2:
        payload["classes"] = len(c.counts)
    _emit(args, payload, cite=cite)
    return 0


def cmd_trace(args) -> int:
    from .cohom import lambda_psq, trace_T_Sjk

    report = trace_T_Sjk(args.j, args.k, args.p)
    payload = report.to_json()
    if args.psq:
        payload["lambda_psq"] = str(lambda_psq(args.j, args.k, args.p))
    label = "eigenvalue" if report.dim == 1 else "trace"
    if not args.json:
        print(f"CONDITIONAL on the endoscopic-contribution conjecture: {label}")
    _emit(args, payload, cite=f"published eigenvalue tables for S_{{{args.j},{args.k}}}")
    return 0


def cmd_igusa(args) -> int:
    from .siegel_g2 import chi10, chi12, eisenstein_g2

    # the singular classes [0,0,c] are stored up to c = max(8, (max_disc + 1) // 4),
    # the c a product of two tables of this max_disc reaches; the rule fixes
    # which rows --json prints
    size = (args.max_disc, max(8, (args.max_disc + 1) // 4))
    if args.form == "chi10":
        table = chi10(*size)
    elif args.form == "chi12":
        table = chi12(*size)
    else:
        table = eisenstein_g2(int(args.form[1:]), *size)
    rows = table.to_json_rows()
    _emit(
        args,
        {"form": args.form, "weight": table.weight, "coeffs": rows},
        cite="published genus-2 Eisenstein and cusp expansions",
        lines=[f"a([{n},{r},{m}]) = {v}" for n, r, m, v in rows],
    )
    return 0


def cmd_g1(args) -> int:
    from .g1_modforms import congruence_prime_scan, critical_ratios, dim_S, eigenforms, hecke_T

    r = args.weight
    if args.hecke is not None:
        mat = hecke_T(r, args.hecke)
        _emit(args, {"weight": r, "p": args.hecke, "matrix": [[str(x) for x in row] for row in mat]})
        return 0
    if dim_S(r) == 0:
        raise InvalidInput(f"S_{r} = 0: weight {r} has no cusp eigenform")
    if args.ratios:
        ratios = critical_ratios(eigenforms(r)[0])
        _emit(
            args,
            {"weight": r, "ratios": ratios},
            cite="published critical-value ratios",
        )
        return 0
    if args.congruence_primes:
        rows = congruence_prime_scan(r)
        _emit(args, {"weight": r, "rows": rows}, cite="published congruence-prime table")
        return 0
    f = eigenforms(r)[0]
    _emit(args, f.to_json())
    return 0


def cmd_satake(args) -> int:
    from .hecke_satake import ALL_IDENTITIES, newton_slopes, spin_factor, verify_identity

    if args.verify_all:
        if args.slopes:
            raise InvalidInput("satake: --slopes needs --spin")
        results = {name: verify_identity(name) for name in ALL_IDENTITIES}
        _emit(args, results, cite="published Hecke-algebra relations")
        return 0 if all(results.values()) else 1
    j, k, p, lam, lam2 = args.spin
    factor = spin_factor(j, k, lam, lam2, p)
    payload = factor.to_json()
    if args.slopes:
        payload["slopes"] = [str(s) for s in newton_slopes(factor, p)]
    _emit(args, payload, cite="published slope table")
    return 0


def cmd_harder(args) -> int:
    from .harder import check_congruence, run_table

    if args.all:
        results = run_table(args.pmax)
        states = ["untestable" if r.untestable else ("ok" if r.verdict else "FAIL") for r in results]
        _emit(
            args,
            {"results": [r.to_json() for r in results]},
            cite="published congruence-prime verification",
            lines=[f"r={r.r} (j,k)=({r.j},{r.k}) ell={r.ell}: {s}" for r, s in zip(results, states)],
        )
        return 1 if "FAIL" in states else 0
    r, j, k, ell = args.row
    res = check_congruence(j, k, r, ell, args.pmax)
    _emit(args, res.to_json(), cite="published congruence verification")
    if res.untestable:
        print("untestable: no eigenvalue data in reach", file=sys.stderr)
        return 4
    return 0 if res.verdict else 1


class _Parser(argparse.ArgumentParser):
    """A usage error is an invalid input (exit 3), in subcommands too:
    add_subparsers builds them of this class."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps subparser defaults from clobbering flags given before
    # the subcommand; main supplies the real defaults
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="byte-stable JSON output")
    common.add_argument("--cite", action="store_true", help="name the published table each output reproduces")
    common.add_argument("--cache-dir", help="census cache directory (or SIEGELFORMS_CACHE_DIR)")
    ap = _Parser(
        prog="siegelforms",
        description="exact genus-2 Siegel modular form computations from curve censuses",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("census", help="build or refresh a curve census", parents=[common])
    c.add_argument("--genus", type=int, choices=(1, 2), required=True)
    c.add_argument("--q", type=int, required=True)
    c.set_defaults(func=cmd_census)

    t = sub.add_parser("trace", help="Hecke trace/eigenvalue on S_{j,k}", parents=[common])
    t.add_argument("--j", type=int, required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--psq", action="store_true", help="also lambda(p^2)")
    t.set_defaults(func=cmd_trace)

    i = sub.add_parser("igusa", help="genus-2 coefficient tables", parents=[common])
    i.add_argument("--form", choices=("E4", "E6", "E10", "E12", "chi10", "chi12"), required=True)
    i.add_argument("--max-disc", type=int, default=20, dest="max_disc")
    i.set_defaults(func=cmd_igusa)

    g = sub.add_parser("g1", help="elliptic modular form data", parents=[common])
    g.add_argument("--weight", type=int, required=True)
    mode = g.add_mutually_exclusive_group()
    mode.add_argument("--hecke", type=int, help="print the T(p) matrix")
    mode.add_argument("--ratios", action="store_true")
    mode.add_argument("--congruence-primes", action="store_true", dest="congruence_primes")
    g.set_defaults(func=cmd_g1)

    s2 = sub.add_parser("satake", help="Hecke-algebra identities and Euler factors", parents=[common])
    mode = s2.add_mutually_exclusive_group(required=True)
    mode.add_argument("--verify-all", action="store_true", dest="verify_all")
    mode.add_argument("--spin", type=int, nargs=5, metavar=("J", "K", "P", "LAM", "LAMP2"))
    s2.add_argument("--slopes", action="store_true")
    s2.set_defaults(func=cmd_satake)

    h = sub.add_parser("harder", help="congruence verification", parents=[common])
    mode = h.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--row", type=int, nargs=4, metavar=("R", "J", "K", "L"))
    h.add_argument("--pmax", type=int, default=37)
    h.set_defaults(func=cmd_harder)
    # the global options alone, the subcommand and all after it left over (see main)
    ap.globals = _Parser(prog=ap.prog, add_help=False, parents=[common])
    ap.globals.add_argument("rest", nargs=argparse.REMAINDER)
    return ap


def main(argv: list[str] | None = None) -> int:
    defaults = argparse.Namespace(json=False, cite=False, cache_dir=None)
    try:
        ap = build_parser()
        try:
            args = ap.parse_args(argv, defaults)
        except InvalidInput:  # an unknown option before the subcommand: name it, not its value
            ap.globals.parse_args(argv)
            raise
        cache_dir = args.cache_dir or os.environ.get("SIEGELFORMS_CACHE_DIR")
        if cache_dir:
            from .census import set_cache_dir

            try:
                set_cache_dir(cache_dir)
            except OSError as exc:
                raise InvalidInput(f"cache directory {cache_dir}: {exc.strerror}") from exc
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map errors to exit codes
        from .census import CacheError, FieldTooLarge

        if isinstance(exc, InvalidInput):
            print(f"config error: {exc}", file=sys.stderr)
            return 3
        if isinstance(exc, (FieldTooLarge, CacheError)):
            print(f"census unavailable: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
