"""Command-line front end: constants | verify | radius | scan | lemma.

Reports are emitted as CSV (12 significant digits, mandatory header) or JSON
to stdout or --out, byte-stable across runs for identical arguments.  Each
command hands ``emit`` its columns, never a report's rows, in the order of
its ``*_COLUMNS`` list, so every column is named once.  JSON rows are dicts
keyed by the column names, built for JSON only.  Each CSV line comes from
one ``%`` template, into which a column of one object is formatted once.
Every theorem rule (its preset, its dimensions, its threshold) is read from
``verify.THEOREMS``: ``radius --functional`` takes a theorem id, and
``verify --family`` admits the family's dimension as a sweep admits n.

Exit codes: 0 success, 1 inequality violations, 2 constants residual breach,
64 usage, 65 domain error, 67 expansion budget, 73 --out file that cannot
be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import sys
from itertools import repeat
from typing import Sequence

from . import constants as sharp
from . import functionals as fun
from . import series as ser
from . import verify as ver
from .errors import BudgetExceededError, DomainError

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_RESIDUAL = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_BUDGET = 67
EXIT_CANTCREAT = 73

VERIFY_COLUMNS = [
    "theorem", "n", "a", "r", "interpretation",
    "head", "tail", "area", "area_sq", "extra", "total", "margin", "certified",
]
SCAN_COLUMNS = ["theorem", "n", "a", "r", "epsilon", "total", "perturbed_total"]
RADIUS_COLUMNS = [
    "functional", "family", "n", "radius", "lo", "hi", "iterations", "binding", "certified",
]
LEMMA_COLUMNS = ["part", "family", "n", "a0", "r", "lhs", "rhs", "gap", "ok"]
CONSTANTS_COLUMNS = [
    "a_star1", "a_star2", "lambda1", "lambda2", "p",
    "radius_classic", "radius_abs_head",
    "resid_a_star1", "resid_a_star2", "resid_lambda1", "resid_lambda2",
    "resid_p", "resid_radius_abs_head", "ok",
]


class UsageError(Exception):
    pass


class OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# --------------------------------------------------------------------------
# Argument parsing helpers
# --------------------------------------------------------------------------

def parse_family(text: str) -> ser.FamilySpec:
    """name:params with params comma-separated, e.g. moebius:0.5, unit:0.6,2,
    scaled:0.6,2, const:0.3, blaschke:0.3,-0.5."""
    name, _, params = text.partition(":")
    try:
        parts = [p for p in params.split(",") if p] if params else []
        if name == "moebius":
            (a,) = parts
            return ser.MoebiusDisk(float(a))
        if name == "unit":
            a, n = parts
            return ser.ExtremalPolydiskUnit(float(a), int(n))
        if name == "scaled":
            a, n = parts
            return ser.ExtremalPolydiskScaled(float(a), int(n))
        if name == "const":
            (c,) = parts
            return ser.ConstantFn(complex(c))
        if name == "blaschke":
            if not parts:
                raise ValueError("no zeros")
            return ser.FiniteBlaschke(tuple(complex(p) for p in parts))
    except DomainError:
        raise
    except ValueError as exc:
        raise UsageError(f"cannot parse family {text!r}: {exc}") from None
    raise UsageError(f"unknown family {name!r}")


def parse_grid(text: str) -> list[float]:
    """start:stop:step inclusive grid, or a single value."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, step = (float(p) for p in parts)
            return ver.grid_values(start, stop, step)
    except (DomainError, ValueError) as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None
    raise UsageError(f"cannot parse grid {text!r}; expected start:stop:step")


def parse_n_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError:
        raise UsageError(f"cannot parse dimension list {text!r}") from None
    if not values:
        raise UsageError("empty dimension list")
    return values


def _resolve_r(text: str, theorem_id: str | None, n: int) -> float:
    if text == "threshold":
        if theorem_id is None:
            raise UsageError("threshold radius needs a theorem id")
        return ver.THEOREMS[theorem_id].threshold(n)
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"cannot parse radius {text!r}") from None


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------

_SPECIAL = frozenset(',"\r\n')


def _text(value: str) -> str:
    """A text cell as ``csv.writer`` quotes it with minimal quoting: as is
    unless it holds a comma, a double quote or a line break, and then as
    this Python's csv module writes it, which decides a lone carriage return
    and doubles each double quote."""
    if _SPECIAL.isdisjoint(value):
        return value
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((value,))
    return buffer.getvalue()[:-1]


#: Cell text by exact type; another type is written by ``str``.
_FORMATS = {float: "{:.12g}".format, bool: ("false", "true").__getitem__, int: str, str: _text}


def _fmt(value) -> str:
    return _FORMATS.get(type(value), str)(value)


def _template(column: Sequence) -> tuple[str, Sequence | None]:
    """A column's part of the line template and the cells that fill it: one
    object is formatted once into it, with % escaped, and fills nothing; a
    float column fills %.12g (``_fmt``'s text), any other %s with ``_fmt``."""
    first = column[0]
    if all(map(operator.is_, column, repeat(first))):
        return _fmt(first).replace("%", "%%"), None
    if set(map(type, column)) == {float}:
        return "%.12g", column
    return "%s", list(map(_fmt, column))


def emit(
    columns: list[Sequence],
    names: list[str],
    out_format: str,
    out_path: str | None,
    meta: dict,
) -> None:
    """Write columns of equal length, in the order of names, as CSV or JSON."""
    if out_format == "csv":
        lines = [",".join(map(_text, names))]
        if size := len(columns[0]):
            parts, filled = zip(*map(_template, columns))
            template, cells = ",".join(parts), [column for column in filled if column is not None]
            lines.extend(map(template.__mod__, zip(*cells) if cells else repeat((), size)))
        if len(names) == 1:  # csv writes a line of one empty cell as ""
            lines = [line or '""' for line in lines]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {"meta": meta, "rows": [dict(zip(names, row)) for row in zip(*columns)]},
            indent=2, sort_keys=True,
        ) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise OutputError(exc) from exc
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_constants(ns: argparse.Namespace) -> int:
    report = sharp.constants_report(tol_override=ns.tol)
    d = report.as_dict()
    values = dict(d, **{f"resid_{k}": v for k, v in d["residuals"].items()})
    # A JSON row is the report's dict, with the residuals nested.
    columns = list(d) if ns.format == "json" else CONSTANTS_COLUMNS
    meta = dict(command="constants", tolerances=report.tolerances)
    emit([[values[name]] for name in columns], columns, ns.format, ns.out, meta)
    if not report.ok:
        print(
            "constants residual breach: " + ", ".join(report.failed()),
            file=sys.stderr,
        )
        return EXIT_RESIDUAL
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    # A family fixes n and a, so the grid flags would be dropped unread.
    grid_flags = [flag for flag, value in (("--n", ns.n), ("--a", ns.a)) if value is not None]
    if ns.family is not None and grid_flags:
        raise UsageError(f"--family cannot be combined with {' and '.join(grid_flags)}")
    theorem_id = ns.theorem
    ver.check_tolerance(ns.tol)
    spec = fun.preset(ver.THEOREMS[theorem_id].preset_name)
    if ns.family is not None:
        family = parse_family(ns.family)
        n = ver._check_n(theorem_id, family.n)
        r = _resolve_r(ns.r, theorem_id, n)
        radius = fun.RadiusSpec.diagonal(n, r)
        interps = [fun.INTERP_LITERAL] if n == 1 else [fun.INTERP_LITERAL, fun.INTERP_SLICE]
        breakdowns = [fun.evaluate(spec.with_interpretation(i), family, radius) for i in interps]
        violations = int(ver.violates(breakdowns[0], ns.tol))  # the literal row decides
        # n, a, r and the ten TermBreakdown columns, as a sweep hands them out.
        columns = [[key] * len(interps) for key in (n, abs(family.a0), r)] + list(zip(*breakdowns))
    else:
        n_list = parse_n_list(ns.n) if ns.n else None
        a_grid = parse_grid(ns.a) if ns.a else None
        r_values = None if ns.r == "threshold" else [_resolve_r(ns.r, theorem_id, 1)]
        report = ver.theorem_sweep(theorem_id, n_list, a_grid, r_values, tol=ns.tol)
        columns = report.columns()
        violations = len(report.violations)
    n_col, a_col, r_col, *terms = columns
    # head_value..margin and then certified open the record; interpretation closes it.
    columns = [[theorem_id] * len(a_col), n_col, a_col, r_col, terms[-1], *terms[:8]]
    meta = dict(command="verify", theorem=theorem_id, violations=violations)
    emit(columns, VERIFY_COLUMNS, ns.format, ns.out, meta)
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_radius(ns: argparse.Namespace) -> int:
    name = ns.functional
    family = parse_family(ns.family)
    result = ver.radius_search(fun.preset(ver.THEOREMS[name].preset_name), family, tol=ns.tol)
    values = (name, ns.family, family.n, result.radius, *result.bracket, *result[2:])
    meta = dict(command="radius", functional=name, family=ns.family, tol=ns.tol)
    emit([[value] for value in values], RADIUS_COLUMNS, ns.format, ns.out, meta)
    return EXIT_OK


def cmd_scan(ns: argparse.Namespace) -> int:
    theorem_id = ns.theorem
    ver.check_tolerance(ns.tol)
    try:
        n = int(ns.n) if ns.n else 1
    except ValueError:
        raise UsageError(f"cannot parse dimension {ns.n!r}") from None
    a_grid = parse_grid(ns.a) if ns.a else ver.grid_values(0.0, 0.9999, 0.0001)
    bold_r = None if ns.r == "threshold" else _resolve_r(ns.r, theorem_id, n)
    report = ver.sharpness_scan(theorem_id, a_grid, n=n, bold_r=bold_r, epsilon=ns.epsilon)
    keys = [[key] * len(report.a) for key in (theorem_id, n, report.bold_r, report.epsilon)]
    columns = [*keys[:2], report.a, *keys[2:], report.total, report.perturbed_total]
    # The maxima and a_star close the record.
    meta = dict(zip(report._fields[7:], report[7:]), command="scan", theorem=theorem_id)
    emit(columns, SCAN_COLUMNS, ns.format, ns.out, meta)
    return EXIT_OK if report.max_total <= ver._limit(ns.tol, True) else EXIT_VIOLATIONS


def cmd_lemma(ns: argparse.Namespace) -> int:
    ver.check_tolerance(ns.tol)
    family = parse_family(ns.family)
    r = _resolve_r(ns.r, None, family.n)
    checks = {"a": ver.lemma1a_check, "b": ver.lemma1b_check, "c": ver.lemma1c_check}
    check = checks[ns.part](family, r)
    if ns.tol is not None:
        check = check._replace(ok=check.lhs <= check.rhs + ns.tol)
    n, a0 = family.n, abs(family.a0)
    values = (ns.part, ns.family, n, a0, r, check.lhs, check.rhs, check.gap, check.ok)
    meta = dict(command="lemma", part=ns.part, family=ns.family, r=r)
    emit([[value] for value in values], LEMMA_COLUMNS, ns.format, ns.out, meta)
    return EXIT_OK if check.ok else EXIT_VIOLATIONS


# --------------------------------------------------------------------------
# Parser wiring
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bohrineq",
        description=(
            "Numerical verification of classical and improved Bohr inequalities "
            "on the disk and polydisk: sharp constants, theorem sweeps, radius "
            "searches, sharpness scans, and lemma-level bound checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    theorems = sorted(ver.THEOREMS)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("constants", help="compute sharp constants and residuals")
    common(p)
    p.add_argument("--tol", type=float, default=None, help="override residual tolerances")
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser("verify", help="sweep a theorem over a parameter grid")
    common(p)
    p.add_argument("--theorem", choices=theorems, required=True)
    p.add_argument("--family", default=None, help="fixed family instead of the grid")
    p.add_argument("--n", default=None, help="comma-separated dimensions")
    p.add_argument("--a", default=None, help="parameter grid start:stop:step")
    p.add_argument("--r", default="threshold", help='radius value or "threshold"')
    p.add_argument("--tol", type=float, default=None, help="override violation tolerance")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("radius", help="largest radius keeping the functional <= 1")
    common(p)
    p.add_argument("--functional", choices=theorems, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=cmd_radius)

    p = sub.add_parser("scan", help="sharpness scan at the threshold radius")
    common(p)
    p.add_argument("--theorem", choices=theorems, required=True)
    p.add_argument("--n", default=None)
    p.add_argument("--a", default=None, help="parameter grid start:stop:step")
    p.add_argument("--r", default="threshold")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=None, help="override pass tolerance")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("lemma", help="check one lemma part on one family")
    common(p)
    p.add_argument("--part", choices=("a", "b", "c"), required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--tol", type=float, default=None, help="override pass tolerance")
    p.set_defaults(handler=cmd_lemma)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.handler(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT


if __name__ == "__main__":
    sys.exit(main())
