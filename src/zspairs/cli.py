"""Command-line front end.

Exit codes are a stable contract: 0 for success (for `check`, an
irreducible pair), 1 for a negative or failed result (a reducible pair,
an infeasible derivation, a resource limit), 2 for unparseable input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys

from . import __version__
from .cache import entry_path, load_report, store_report
from .checks import allocation_sweep, bounds_sweep, derivation_sweep, oracle_sweep
from .derivation import DerivationError, DerivationPlan, derive_chain, derive_product
from .enumeration import (
    _MODES,
    EnumConfig,
    check_workers,
    compute_ell,
    enumerate_irreducible,
    extremal_pairs,
)
from .formats import (
    FormatError,
    format_multiset,
    format_pair,
    pair_to_json,
    parse_chain,
    parse_pair,
    parse_plan,
)
from .irreducibility import is_irreducible, reducibility_witness

_REPORT_SEPARATORS = (",", ":")


def _print_report(obj: dict) -> None:
    print(json.dumps(obj, separators=_REPORT_SEPARATORS))


def cmd_check(args: argparse.Namespace) -> int:
    pair = parse_pair(args.pair)
    witness = reducibility_witness(pair)
    irreducible = pair.balanced and witness is None
    print(f"irreducible: {'true' if irreducible else 'false'}")
    print(f"k-threshold: {pair.max_element}")
    if irreducible:
        return 0
    if witness is None:
        print(f"unbalanced: sum {pair.a.sigma} != {pair.b.sigma}")
    else:
        print(
            f"witness: {format_multiset(witness.a_sub)} | "
            f"{format_multiset(witness.b_sub)}"
        )
    return 1


def cmd_derive(args: argparse.Namespace) -> int:
    pair = parse_pair(args.pair)
    if args.product is not None:
        plan = DerivationPlan.of(parse_plan(args.product))
        result = derive_product(pair, plan)
    else:
        result = derive_chain(pair, parse_chain(args.chain))
    print(format_pair(result))
    print(f"irreducible: {'true' if is_irreducible(result) else 'false'}")
    return 0


def cmd_ell(args: argparse.Namespace) -> int:
    cfg = EnumConfig(k=args.k, sum_cap=args.sum_cap, mode=args.mode)
    # Refused before the lookup, so a cached entry cannot mask a bad count.
    check_workers(args.workers)
    if not args.no_cache:
        cached = load_report(cfg.k, cfg.mode, cfg.sum_cap, __version__)
        if cached is not None:
            _print_report(cached["report"])
            # Provenance: the wall_time in the report is the original run's.
            print(
                f"cache: hit {entry_path(cfg.k, cfg.mode, cfg.sum_cap)}"
                f" created_at={cached.get('created_at')}"
                f" version={cached['tool_version']}"
                f" wall_time={cached['report'].get('wall_time')}",
                file=sys.stderr,
            )
            return 0
    report = compute_ell(cfg, workers=args.workers)
    _print_report(report.to_obj())
    if args.no_cache:
        print("cache: off", file=sys.stderr)
    else:
        # The report is already printed; failing to cache it is not an error.
        try:
            path = store_report(
                cfg.k, cfg.mode, cfg.sum_cap, __version__, report.to_obj()
            )
        except OSError as e:
            print(f"cache: not stored ({e})", file=sys.stderr)
        else:
            print(f"cache: stored {path}", file=sys.stderr)
    return 0


def _emit_pairs(pairs, fmt: str, k: int) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["k", "sum", "length", "A", "B"])
        for p in pairs:
            writer.writerow(
                [k, p.a.sigma, p.length, format_multiset(p.a), format_multiset(p.b)]
            )
    elif fmt == "json":
        for p in pairs:
            print(pair_to_json(p))
    else:
        for p in pairs:
            print(format_pair(p))


def cmd_enumerate(args: argparse.Namespace) -> int:
    window = None
    if args.min_len is not None or args.max_len is not None:
        # No --max-len leaves the window open above.
        hi = float("inf") if args.max_len is None else args.max_len
        window = (args.min_len or 1, hi)
    cfg = EnumConfig(
        k=args.k, sum_cap=args.sum_cap, length_window=window, mode=args.mode
    )
    _emit_pairs(enumerate_irreducible(cfg, workers=args.workers), args.format, args.k)
    return 0


def cmd_extremal(args: argparse.Namespace) -> int:
    cfg = EnumConfig(k=args.k, sum_cap=args.sum_cap, mode=args.mode)
    _emit_pairs(extremal_pairs(cfg), args.format, args.k)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """Reduced-scale runs of acceptance sweeps c05-c08."""
    rng = random.Random(20240901)  # shared: derivations draw first, then allocations
    results = (
        ("oracle-equivalence", "{} pairs, {} mismatches", oracle_sweep(5, 10)),
        ("derivation-preservation", "{} samples, {} violations",
         derivation_sweep(EnumConfig(k=5, sum_cap=25, mode="pruned"), 2000, rng)),
        ("allocation-invariants", "{} instances, {} violations",
         allocation_sweep(2000, rng, max_bins=5, max_value=9)),
        ("length-bounds", "{1} violations",
         bounds_sweep(EnumConfig(k=4, sum_cap=16, mode="brute"))),
    )
    for name, detail, (n, bad) in results:
        print(f"{name}: {'ok' if bad == 0 else 'FAIL'} ({detail.format(n, bad)})")
    return 0 if all(bad == 0 for _, _, (_, bad) in results) else 1


def _add_survey_arguments(parser: argparse.ArgumentParser) -> None:
    """The arguments `ell`, `enumerate` and `extremal` share, first."""
    parser.add_argument("k", type=int)
    parser.add_argument("--mode", choices=_MODES, default="brute")
    parser.add_argument("--sum-cap", type=int, default=None)


class _Parser(argparse.ArgumentParser):
    """Help and version text that cannot be written fail the run: argparse
    drops an OSError from any message.  Messages to stderr keep that, so
    a usage error still exits 2."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zspairs",
        description="Irreducible zero-sum multiset pairs: check, derive, survey.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide irreducibility of a pair")
    p_check.add_argument("pair", help="pair in 'A | B' text form, e.g. '7^3 1^2 | 6^3 5'")
    p_check.set_defaults(func=cmd_check)

    p_derive = sub.add_parser("derive", help="apply a product plan or a chain")
    p_derive.add_argument("pair", help="pair in 'A | B' text form")
    group = p_derive.add_mutually_exclusive_group(required=True)
    group.add_argument("--product", help="simultaneous plan, e.g. '7,6^2;7,5'")
    group.add_argument("--chain", help="sequential steps, e.g. '5,2;3,2'")
    p_derive.set_defaults(func=cmd_derive)

    p_ell = sub.add_parser("ell", help="survey the maximum pair length for k")
    _add_survey_arguments(p_ell)
    p_ell.add_argument("--no-cache", action="store_true")
    p_ell.add_argument("--workers", type=int, default=1)
    p_ell.set_defaults(func=cmd_ell)

    p_enum = sub.add_parser("enumerate", help="list irreducible pairs for k")
    _add_survey_arguments(p_enum)
    p_enum.add_argument("--min-len", type=int, default=None)
    p_enum.add_argument("--max-len", type=int, default=None)
    p_enum.add_argument(
        "--format", choices=["json", "csv", "plain"], default="plain"
    )
    p_enum.add_argument("--workers", type=int, default=1)
    p_enum.set_defaults(func=cmd_enumerate)

    p_ext = sub.add_parser(
        "extremal", help="list the maximum-length irreducible pairs for k"
    )
    _add_survey_arguments(p_ext)
    p_ext.add_argument(
        "--format", choices=["json", "csv", "plain"], default="plain"
    )
    p_ext.set_defaults(func=cmd_extremal)

    p_self = sub.add_parser("selftest", help="run reduced-scale sanity suites")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except FormatError as e:
        print(f"parse error {e}", file=sys.stderr)
        return 2
    except DerivationError as e:
        where = f" at step {e.step}" if e.step is not None else ""
        print(f"error{where}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run `main` as a program.  A stdout that takes no more output, a
    closed pipe or a full device, ends the run with exit 1 and no
    traceback; a closed pipe, where the reader stopped, says nothing."""
    try:
        code = main()
        sys.stdout.flush()
    except OSError as e:
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write output: {e}", file=sys.stderr)
        # The interpreter flushes stdout again as it exits; on devnull
        # what is still buffered goes nowhere and that flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
