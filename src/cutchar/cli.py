"""Command line front end.

Subcommands::

    cutchar cohomology BUNDLE          section characters of a bundle
    cutchar cut BUNDLE                 the level-zero cut and its cohomology
    cutchar verify BUNDLE [--checks]   run checks on one bundle
    cutchar sweep ...                  run checks over a rank-one grid
    cutchar equality-region ...        map where the inequalities are tight

``BUNDLE`` is comma-separated ``rP:rQ`` pairs, e.g. ``1:-1,2:2``.  Ranges
are inclusive ``A..B``.  Exit status: 0 when everything passed, 1 when some
check failed, 2 on usage or input errors and when the output cannot be
written.  Output is byte-stable unless ``--timestamps`` is given.

Every argument is declared once, in :data:`_COMMANDS`.  :func:`_scan` reads
a plain command line (the command, then its positional and its options in
full, each with its value) straight from those declarations, without
importing argparse.  Anything else, help and every usage error included,
goes to the argparse parser that :func:`_build_parser` builds from the same
declarations, so every message and exit status there is argparse's.

Each command only parses and validates its input, and hands :func:`main`
its output path, its format and its work.  :func:`main` alone opens the
output, runs the work, writes the result through :func:`_write` and picks
the exit status.  JSON goes through the one writer in :mod:`cutchar.verify`,
which takes the characters and check results as they are and hands the
output its pieces as it makes them.

Every command runs in its own process, so start-up loads only what a plain
command uses: no ``typing``, ``re``, ``json`` or ``contextlib``.  The records
are ``collections.namedtuple`` subclasses, :meth:`RunConfig.load` imports
``json`` to read a config, and :func:`_build_parser` imports argparse, and
with it ``re``.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from types import SimpleNamespace

from .geometry import EquivBundleCP1, _parse_weight, cohomology, cut, mcut_cohomology
from .verify import ALL_CHECKS, SweepReport, _normalize_checks, _write_json, equality_region, grid_bundles, sweep

__all__ = ["main", "console_main", "RunConfig"]


class _UsageError(Exception):
    pass


def _parse_bundle(literal: str) -> EquivBundleCP1:
    try:
        return EquivBundleCP1.parse(literal)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_range(text: str) -> tuple[int, int]:
    head, sep, tail = text.partition("..")
    if not sep:
        raise _UsageError(f"bad range {text!r}: expected A..B")
    try:
        lo, hi = _parse_weight(head, "endpoints"), _parse_weight(tail, "endpoints")
    except ValueError as exc:
        raise _UsageError(f"bad range {text!r}: {exc}") from None
    if lo > hi:
        raise _UsageError(f"bad range {text!r}: {lo} > {hi}")
    return lo, hi


_NO_CHECKS = "no checks selected"
_FORMATS = ("json", "csv", "md")


def _parse_checks(text: str) -> tuple[str, ...]:
    if not text:
        raise _UsageError(_NO_CHECKS)
    ids = tuple(piece.strip() for piece in text.split(","))
    if ids == ("all",):
        return ALL_CHECKS
    if "all" in ids:
        raise _UsageError("'all' must stand alone as the whole --checks value")
    try:
        return _normalize_checks(ids)
    except ValueError as exc:
        raise _UsageError(f"{exc}, all") from None


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


class RunConfig(namedtuple("RunConfig", "bundles grid checks fail_fast out fmt", defaults=(None,) * 6)):
    """Settings loadable from a JSON file, overridable by flags.

    The file holds exactly one bundle source, either
    ``{"bundles": ["rP:rQ", ...]}`` or
    ``{"grid": {"rp_range": "A..B", "rq_range": "A..B"}}``, plus optional
    ``"checks"`` (a nonempty list, one check id per entry), ``"fail_fast"``
    (bool) and ``"output"`` ({"path": ..., "format": ...}).
    """

    __slots__ = ()

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        import json

        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except UnicodeDecodeError as exc:
            raise _UsageError(f"config {path!r} is not UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config {path!r} is not valid JSON: {exc}") from None
        except RecursionError:
            raise _UsageError(f"config {path!r} nests too deeply to decode") from None
        except (OSError, ValueError) as exc:  # ValueError from open(): a path holding a NUL byte
            raise _UsageError(f"cannot read config {path!r}: {exc}") from None
        if not isinstance(obj, dict):
            raise _UsageError(f"config {path!r} must be a JSON object")
        known = {"bundles", "grid", "checks", "fail_fast", "output"}
        unknown = set(obj) - known
        if unknown:
            raise _UsageError(f"config {path!r} has unknown keys: {', '.join(sorted(unknown))}")
        if ("bundles" in obj) == ("grid" in obj):
            raise _UsageError(f"config {path!r} must set exactly one of bundles, grid")
        bundles = grid = checks = out = fmt = None
        fail_fast = obj.get("fail_fast")
        try:
            if "bundles" in obj:
                lits = obj["bundles"]
                if not _is_str_list(lits) or not lits:
                    raise _UsageError("bundles must be a nonempty list of strings")
                bundles = tuple(_parse_bundle(lit) for lit in lits)
            else:
                g = obj["grid"]
                if not isinstance(g, dict) or set(g) != {"rp_range", "rq_range"}:
                    raise _UsageError("grid must have keys rp_range, rq_range")
                if not all(isinstance(v, str) for v in g.values()):
                    raise _UsageError("grid ranges must be strings A..B")
                grid = (_parse_range(g["rp_range"]), _parse_range(g["rq_range"]))
            if "checks" in obj:
                ids = obj["checks"]
                if not _is_str_list(ids):
                    raise _UsageError("checks must be a list of ids")
                if not ids:
                    raise _UsageError(_NO_CHECKS)
                # One id per entry: no "all" and no comma-separated lists here.
                try:
                    checks = _normalize_checks(ids)
                except ValueError as exc:
                    raise _UsageError(str(exc)) from None
            if fail_fast is not None and type(fail_fast) is not bool:
                raise _UsageError("fail_fast must be a boolean")
            if "output" in obj:
                output = obj["output"]
                if not isinstance(output, dict) or not set(output) <= {"path", "format"}:
                    raise _UsageError("output takes keys path, format")
                out = output.get("path")
                fmt = output.get("format")
                if out is not None and not isinstance(out, str):
                    raise _UsageError("output path must be a string")
                if fmt is not None and fmt not in _FORMATS:
                    raise _UsageError("format must be json, csv or md")
        except _UsageError as exc:  # every error past the object's keys names the config
            raise _UsageError(f"config {path!r}: {exc}") from None
        return cls(bundles, grid, checks, fail_fast, out, fmt)


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _table(table, **head) -> dict:
    """The JSON members of a cohomology table, after those of ``head``."""
    return {**head, "h0": table.h0, "h1": table.h1, "n": table.n}


def _write(result: dict | SweepReport, fmt: str, stamp: bool, dest) -> None:
    """Write a command's result: a report as JSON, CSV or Markdown, JSON members as JSON.

    With ``stamp`` the generation time goes last: JSON's last member, or
    Markdown's last line.  CSV gets no stamp.
    """
    if fmt == "csv":
        dest.write(result.to_csv())
    elif fmt == "md":
        text = result.to_markdown()
        dest.write(f"{text}\nGenerated: {_timestamp()}\n" if stamp else text)
    else:
        members = result._json_members() if isinstance(result, SweepReport) else result
        if stamp:
            members["generated_at"] = _timestamp()
        _write_json(members, dest.write)
        dest.write("\n")


def _cmd_cohomology(args):
    bundle = _parse_bundle(args.bundle)
    return args.out, "json", lambda: _table(cohomology(bundle))


def _cmd_cut(args):
    bundle = _parse_bundle(args.bundle)

    def work() -> dict:
        cutd = cut(bundle)
        mcut, plus, minus = mcut_cohomology(cutd)
        return {
            "bundle": bundle.literal(),
            "plus": _table(plus, bundle=cutd.plus.literal()),
            "minus": _table(minus, bundle=cutd.minus.literal()),
            "red_dims": cutd.red_dims,
            "mcut": _table(mcut),
        }

    return args.out, "json", work


def _cmd_verify(args):
    bundle = _parse_bundle(args.bundle)
    checks = _parse_checks(args.checks)
    return args.out, args.format, lambda: sweep([bundle], checks)


def _cmd_sweep(args):
    config = RunConfig.load(args.config) if args.config is not None else RunConfig()
    rp = _parse_range(args.rp_range) if args.rp_range is not None else None
    rq = _parse_range(args.rq_range) if args.rq_range is not None else None
    if (rp is None) != (rq is None):
        raise _UsageError("--rp-range and --rq-range go together")
    if rp is not None:
        bundles = grid_bundles(rp, rq)
    elif config.bundles is not None:
        bundles = list(config.bundles)
    elif config.grid is not None:
        bundles = grid_bundles(*config.grid)
    else:
        raise _UsageError("no bundles: give --rp-range/--rq-range or --config")
    if args.checks is not None:
        checks = _parse_checks(args.checks)
    else:
        checks = config.checks if config.checks is not None else ALL_CHECKS
    fail_fast = args.fail_fast if args.fail_fast is not None else bool(config.fail_fast)
    fmt = args.format or config.fmt or "json"
    out = args.out if args.out is not None else config.out
    return out, fmt, lambda: sweep(bundles, checks, fail_fast=fail_fast)


def _cmd_equality_region(args):
    rp, rq = _parse_range(args.rp_range), _parse_range(args.rq_range)
    return args.out, args.format, lambda: equality_region(rp, rq)


def _arg(name: str, **spec) -> tuple:
    """One ``add_argument`` call, kept as data: :func:`_build_parser` replays it, :func:`_scan` reads it."""
    return name, spec


_CHECKS_HELP = "comma-separated check ids, spaces around each ignored, or all"
_BUNDLE = _arg("bundle", help="bundle literal, e.g. 1:-1,2:2")
# Every command takes these two first.
_OUTPUT = (
    _arg("--out", metavar="PATH", help="write output to PATH instead of stdout"),
    _arg(
        "--timestamps",
        action="store_true",
        default=False,
        help="stamp JSON and Markdown output with the generation time; CSV gets no stamp",
    ),
)

# Each command's help line, its handler, and its own arguments.
_COMMANDS = {
    "cohomology": ("section characters of a bundle", _cmd_cohomology, (_BUNDLE,)),
    "cut": ("the level-zero cut and its cohomology", _cmd_cut, (_BUNDLE,)),
    "verify": (
        "run checks on one bundle",
        _cmd_verify,
        (
            _BUNDLE,
            _arg("--checks", default="all", help=_CHECKS_HELP),
            _arg("--format", choices=_FORMATS, default="json"),
        ),
    ),
    "sweep": (
        "run checks over a rank-one grid",
        _cmd_sweep,
        (
            _arg("--rp-range", metavar="A..B", help="inclusive range of r_P"),
            _arg("--rq-range", metavar="A..B", help="inclusive range of r_Q"),
            _arg("--checks", help=_CHECKS_HELP),
            _arg("--format", choices=_FORMATS),
            _arg("--fail-fast", action="store_true", default=None, help="stop at the first failing check"),
            _arg("--config", metavar="PATH", help="JSON run configuration; flags override it"),
        ),
    ),
    "equality-region": (
        "map where the Morse-type inequalities are tight",
        _cmd_equality_region,
        (
            _arg("--rp-range", metavar="A..B", required=True),
            _arg("--rq-range", metavar="A..B", required=True),
            _arg("--format", choices=_FORMATS, default="md"),
        ),
    ),
}

def _is_value(token: str) -> bool:
    # Bundle literals like -3:0 and ranges like -1..1 begin with a dash; a token that starts
    # with a negative weight is a value, never an option: argparse's ^-\d, with \d any decimal digit.
    return token[:1] != "-" or token[1:2].isdecimal()


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """What ``parse_args`` makes of a plain ``argv``; None for any other.

    Plain is: a command, then in any order its positional and its options
    spelled in full, where an option that takes a value is followed by one
    (empty, not dash-led, or led by a negative weight) within its choices,
    and every required argument is there.  A repeated option keeps its last
    value, as in argparse.  Help, ``--opt=value``, abbreviations, ``--``,
    unknown, missing or extra arguments and bad choices are argparse's, so
    every help text, usage line and error stays its own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _COMMANDS[argv[0]][2]
    values = {"command": argv[0]}
    positionals, options, required = [], {}, []
    for name, spec in _OUTPUT + arguments:
        dest = name.lstrip("-").replace("-", "_")
        values[dest] = spec.get("default")
        if name[0] != "-":
            positionals.append(dest)
        else:
            options[name] = dest, spec
            if spec.get("required"):
                required.append(dest)
    tokens = iter(argv[1:])
    for token in tokens:
        if _is_value(token):
            if not positionals:
                return None
            values[positionals.pop(0)] = token
            continue
        if token not in options:
            return None
        dest, spec = options[token]
        if spec.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is refused as a dash-led one is
        if not _is_value(value) or value not in spec.get("choices", (value,)):
            return None
        values[dest] = value
    if positionals or any(values[dest] is None for dest in required):
        return None
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse parser of every command; :func:`main` builds it only for what :func:`_scan` refuses."""
    import argparse
    import re

    negative = re.compile(r"^-\d")

    class _Parser(argparse.ArgumentParser):
        """Parser that reads a token led by a negative weight as a value, as :func:`_is_value` does."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = negative

    parser = _Parser(
        prog="cutchar",
        description="Exact circle-equivariant section characters on the projective line, "
        "the level-zero cut, and checks of the gluing and Morse-type relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for arg, spec in _OUTPUT + arguments:
            p.add_argument(arg, **spec)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _scan(argv) or _build_parser().parse_args(argv)
    try:
        out, fmt, work = _COMMANDS[args.command][1](args)
        # The output opens after the command has parsed its input and before its work, so an
        # unwritable path costs no work and a bad input leaves the file untouched.  A failed
        # write exits 2, as an input error does: exit 1 means only a failed check.
        try:
            dest = sys.stdout if out is None else open(out, "w", encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL or a lone surrogate
            raise _UsageError(f"cannot write {out!r}: {exc}") from None
        try:
            try:
                result = work()
                _write(result, fmt, args.timestamps, dest)
                dest.flush()
            finally:
                if out is not None:
                    dest.close()
        except OSError as exc:  # the work itself does no I/O
            raise _UsageError(f"cannot write {'stdout' if out is None else repr(out)}: {exc}") from None
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if isinstance(result, SweepReport) and not result.passed else 0


def console_main() -> None:
    sys.exit(main())
