"""Command-line front end: tabulation, identity verification, moments,
sampling.

Exit codes: 0 success, 2 validation error, 3 capacity-guard error.  Output
is byte-deterministic for exact-mode runs; every run echoes its fully
resolved configuration (CSV: leading `#` comment lines; JSON: a config
object).  Rational parameters are "a/b" or integer strings; decimal input
switches the run to approximate mode and says so in the banner.

Every command writes through `_emit` (`_emit_table` streams a table):
its document, laid out by `serialize`, with its config added.

Each command imports the modules it uses when it runs: `verify` loads
neither model nor the sampler, and a table of one kind loads neither the
other kind, the identities nor the sampler.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import suppress
from itertools import chain
from typing import Iterable, Optional, Sequence

from . import serialize
from .algebra import IDENTITY_IDS, AlgebraSpec, check_triangular_recurrence, load_algebra_config, make_preset
from .errors import (CapacityError, ModeMixError, RpqError, UnderflowError, ValidationError,
                     ZeroProbabilityEventError)

OUTPUT_DIR_ENV = "RPQ_OUTPUT_DIR"


def __getattr__(name):
    # `rpq.cli.verify_identity` stays readable (the benchmark's tracer tests
    # read it) without this module loading `identities`: each read looks the
    # name up there.
    if name == "verify_identity":
        from .identities import verify_identity

        return verify_identity
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_SUBCOMMANDS = {
    "tabulate": "joint occupancy table",
    "marginal": "law of a leading prefix",
    "conditional": "law of a middle block given a prefix",
    "grouped": "law of consecutive urn blocks",
    "moments": "closed-form moments vs the enumeration oracle",
    "sample": "reproducible inverse-CDF draws",
    "verify": "identity suites with discrepancy fits",
}


def _add_arguments(name: str, p: argparse.ArgumentParser) -> None:
    """The options of subcommand `name`."""
    if name != "verify":
        p.add_argument("--kind", choices=("first", "second"), default="first")
    p.add_argument("--preset", default=None, help="algebra preset name or alias (js, q, quesne, cj)")
    p.add_argument("--p", dest="p", default=None, help='base parameter, rational string like "9/10"')
    p.add_argument("--q", dest="q", default=None, help='base parameter, rational string like "1/2"')
    p.add_argument("--algebra-config", default=None, help="path of a key=value algebra record")
    p.add_argument("--tol", type=float, default=1e-10, help="relative tolerance in approximate mode")
    if name != "verify":
        p.add_argument("--k", type=int, required=True, help="number of leading urns")
        p.add_argument("--n", type=int, required=True, help="number of balls")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help=f"output path (relative paths honor ${OUTPUT_DIR_ENV})")
    if name == "marginal":
        p.add_argument("--r", type=int, required=True, help="prefix length, 1 <= r < k")
    elif name == "conditional":
        p.add_argument("--given", required=True, help="comma-separated prefix values, e.g. 0,1")
        p.add_argument("--m", type=int, default=None, help="last conditioned coordinate (default k)")
    elif name == "grouped":
        p.add_argument("--groups", required=True, help="comma-separated block sizes summing to k")
    elif name == "moments":
        p.add_argument("--i1", type=int, default=1)
        p.add_argument("--i2", type=int, default=1)
    elif name == "sample":
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--sequential", action="store_true", help="draw coordinate-by-coordinate")
    elif name == "verify":
        p.add_argument("--suite", required=True, choices=IDENTITY_IDS + ("triangular", "all"))
        p.add_argument("--kmax", type=int, required=True)
        p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--literal-window", action="store_true",
                       help="diagnostic: drop the capacity cap on occupancy sums")


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The parser with every subcommand.  Given `argv`, only the subcommand
    it names (its first word that is not an option) gets its options, the
    only ones a parse of `argv` can read; otherwise all do."""
    parser = argparse.ArgumentParser(
        prog="rpq",
        description="Deformed occupancy distributions with an exact enumeration oracle.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    named = None if argv is None else next((word for word in argv if not word.startswith("-")), "")
    for name, summary in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if named is None or name == named:
            _add_arguments(name, p)
    return parser


def _make_algebra(args) -> AlgebraSpec:
    if args.algebra_config:
        try:
            with open(args.algebra_config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
            raise ValidationError(f"algebra-config: cannot read {args.algebra_config}: {reason}") from None
        return load_algebra_config(text)
    if args.preset is None:
        raise ValidationError("preset: required (or pass --algebra-config)")
    return make_preset(args.preset, p=args.p, q=args.q, tol=args.tol)


def _parse_int_list(text: str, field: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValidationError(f"{field}: expected comma-separated integers, got {text!r}") from None


def _config(args, alg: AlgebraSpec, **extra) -> dict:
    config = {"subcommand": args.subcommand, "format": args.format}
    config.update(alg.describe())
    if not alg.exact:
        config["note"] = "decimal parameters force approximate mode"
    config.update(extra)
    return config


def _model(args, alg: AlgebraSpec):
    """The module of args.kind, imported here, and the command's params
    (whose class checks k and n)."""
    if args.kind == "first":
        from . import first_kind

        return first_kind, first_kind.FirstKindParams(alg, args.k, args.n)
    from . import second_kind

    return second_kind, second_kind.SecondKindParams(alg, args.k, args.n)


def _emit(args, config, json_obj, csv_body) -> Iterable[str]:
    """The output chunks.  JSON: json_obj() with the config object; CSV: the
    config header, then csv_body()."""
    if args.format == "json":
        obj = json_obj()
        obj["config"] = serialize._plain(config)
        return [serialize.dumps_json(obj)]
    return [serialize.config_header(config), csv_body()]


def _emit_table(args, config, table) -> Iterable[str]:
    """`_emit` of a table (or a joint's row stream) as a lazy stream of
    chunks of rows."""
    if args.format == "json":
        return serialize.table_json_chunks(table, serialize._plain(config))
    return chain([serialize.config_header(config)], serialize.table_csv_chunks(table))


def _query(args, module, params):
    """The table (or moment reports) a model command asks for, and the
    config entries it adds."""
    command = args.subcommand
    if command == "tabulate":
        return module.joint_stream(params), {}
    if command == "marginal":
        return module.marginal_pmf(params, args.r), {"r": args.r}
    if command == "conditional":
        given = _parse_int_list(args.given, "given")
        m = args.m if args.m is not None else args.k
        table = module.conditional_pmf(params, given, m)
        return table, {"given": ",".join(map(str, given)), "m": m}
    if command == "grouped":
        from .occupancy import GroupingScheme

        scheme = GroupingScheme(_parse_int_list(args.groups, "groups"))
        return module.grouped_pmf(params, scheme), {"groups": ",".join(map(str, scheme.sizes))}
    return module.bivariate_moments(params, args.i1, args.i2), {"i1": args.i1, "i2": args.i2}


def _cmd_model(args, alg: AlgebraSpec) -> Iterable[str]:
    """tabulate, marginal, conditional, grouped and moments."""
    module, params = _model(args, alg)
    result, extra = _query(args, module, params)
    config = _config(args, alg, kind=args.kind, k=args.k, n=args.n, **extra)
    if args.subcommand == "moments":
        return _emit(args, config, lambda: serialize.moments_to_json_obj(result),
                     lambda: serialize.moments_to_csv(result))
    return _emit_table(args, config, result)


def _cmd_sample(args, alg: AlgebraSpec) -> Iterable[str]:
    from .occupancy import _joint_law
    from .sampler import _descent, sequential_sample

    _, params = _model(args, alg)
    # The class law the draws read gives a drawn point's probability.
    law = _joint_law(params).law
    batch = (sequential_sample if args.sequential else _descent)(params, args.seed, args.count)
    config = _config(args, alg, kind=args.kind, k=args.k, n=args.n,
                     seed=args.seed, count=args.count, sequential=args.sequential)
    return _emit(args, config, lambda: serialize.batch_to_json_obj(batch, law),
                 lambda: serialize.batch_to_csv(batch, law.coord_labels))


def _cmd_verify(args, alg: AlgebraSpec) -> Iterable[str]:
    if args.nmax is not None and args.nmax < 0:
        raise ValidationError(f"nmax: need nmax >= 0, got {args.nmax}")
    if args.suite == "triangular":
        if args.nmax is not None:
            raise ValidationError("nmax: the triangular suite takes no --nmax; it checks every 1 <= n <= m <= kmax")
        config = _config(args, alg, suite=args.suite, kmax=args.kmax)
        report = check_triangular_recurrence(alg, args.kmax)
        return _emit(args, config, lambda: serialize.triangular_to_json_obj(report),
                     lambda: serialize.triangular_to_csv(report))

    from .identities import check_report_count, reports_to_csv, reports_to_json_obj, verify_identity

    config = _config(args, alg, suite=args.suite, kmax=args.kmax,
                     nmax=args.kmax if args.nmax is None else args.nmax)
    suites = IDENTITY_IDS if args.suite == "all" else (args.suite,)
    # The suites' reports together pass the guard before any suite runs.
    check_report_count(suites, args.kmax, args.nmax)
    reports = [report for suite in suites
               for report in verify_identity(suite, alg, args.kmax, args.nmax, literal_window=args.literal_window)]
    config["exact_count"] = f"{sum(r.exact_match for r in reports)}/{len(reports)}"
    config["fitted_count"] = f"{sum(r.monomial_found for r in reports)}/{len(reports)}"
    return _emit(args, config, lambda: {"schema_version": serialize.SCHEMA_VERSION,
                                        "reports": reports_to_json_obj(reports)},
                 lambda: reports_to_csv(reports))


_COMMANDS = {
    "tabulate": _cmd_model,
    "marginal": _cmd_model,
    "conditional": _cmd_model,
    "grouped": _cmd_model,
    "moments": _cmd_model,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def _write_output(chunks: Iterable[str], args) -> None:
    """Write the chunks one at a time to stdout or to --output.

    The command has validated its input and built its result before this
    opens the output.  If writing the file fails, the partial file is
    removed, unless the path is a symlink or not a regular file (say
    /dev/stdout), and the failure is a validation error.
    """
    if args.output is None:
        try:
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader has gone (say `| head`): stop quietly, and keep the
            # flush at exit from failing again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    path = args.output
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    removable = False
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            removable = stat.S_ISREG(os.fstat(handle.fileno()).st_mode) and not os.path.islink(path)
            for chunk in chunks:
                handle.write(chunk)
    except BaseException as exc:
        if removable:
            with suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise ValidationError(f"output: cannot write {path}: {exc.strerror}") from None
        raise


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    alg = None
    try:
        alg = _make_algebra(args)
        _write_output(_COMMANDS[args.subcommand](args, alg), args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ModeMixError, ZeroProbabilityEventError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, ZeroDivisionError, UnderflowError) as exc:
        # In approximate mode a division by zero divides by a float that
        # underflowed; in exact mode it is a fault of the program.
        if isinstance(exc, ZeroDivisionError) and (alg is None or alg.exact):
            raise
        what = "overflowed" if isinstance(exc, OverflowError) else "underflowed"
        print(
            f"error: p, q: approximate-mode arithmetic {what} a float ({exc}); "
            "rational p and q (e.g. 1/10) run in exact mode",
            file=sys.stderr,
        )
        return 2
    except RpqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
