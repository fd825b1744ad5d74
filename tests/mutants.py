"""Hand-made mutants of ``src/bohrineq``: each breaks one guard, and the
tier-1 suite must fail on it.

Run from anywhere, with pytest installed:

    python tests/mutants.py

For each mutant the runner copies ``src`` to a temporary directory, replaces
one snippet that must occur exactly once in its file, and runs pytest from
the repository root with ``PYTHONPATH`` set to the copy; the CLI subprocess
tests follow ``cli.__file__``, so they run the copy too.  A mutant that a
test kills names its *killer*: the node id of one tier-1 test that fails on
it alone.  The runner runs that test alone first, and the row reads:

- *killed by* ``<id>`` when the killer fails (pytest exit status 1);
- *stale killer* when the killer passes, or pytest cannot find it (exit
  status 4 or 5).  The runner then falls back to ``pytest -x -rfE`` over
  the whole suite, and that run's verdict stands, with the first failing
  id when it kills;
- *no killer* when that suite run kills a mutant that names no killer; the
  row gives the first failing id, to paste into the table;
- *survived* when the whole suite passes.  A mutant marked equivalent names
  no killer, so it always runs the whole suite.

*snippet not found* means the source moved on: update the table, and name
the change in ``CHANGES.md``.  The unmutated copy runs first: the whole
suite, then each distinct killer alone, and all must pass, so "killed"
still means that a test which passes on the package fails on the mutant.
A Markdown table goes to stdout.  The exit status is 1 when the unmutated
copy fails, a snippet is not found, a killer is stale or missing, pytest
cannot run, or a mutant that is not marked equivalent survives; else 0.

Runs load no third-party pytest plugin (``PYTEST_DISABLE_PLUGIN_AUTOLOAD``):
the suite needs none, and installed ones such as hypothesis and
pytest-benchmark added about 0.6 s of import to every run.  Mutants run one at a time.  Two suite
runs at once took no longer than one (14.9 s against 15.2 s on a 2-CPU
host), but under load the wall-time assertions of
``tests/test_acceptance.py`` (lines 95, 106 and 148) could fail and read as
kills.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: The node id on a FAILED or ERROR line of pytest's -rfE summary.
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/bohrineq
    snippet: str
    replacement: str
    guard: str
    killer: str | None = None  # the node id of a test that fails on it alone
    equivalent: str | None = None  # the reason, when no test can kill it


MUTANTS = [
    Mutant(
        "scan-row-swap", "cli.py",
        "report.total, report.perturbed_total]",
        "report.perturbed_total, report.total]",
        "scan rows: total and perturbed_total in their own columns",
        "tests/test_cli.py::test_scan_rows_keep_each_total_in_its_column[csv]",
    ),
    Mutant(
        "radius-row-swap", "cli.py",
        "result.binding, result.certified)",
        "result.certified, result.binding)",
        "radius rows: binding and certified in their own columns",
        "tests/test_cli.py::test_radius_that_does_not_bind[csv]",
    ),
    Mutant(
        "verify-row-swap", "cli.py",
        "n_col, a_col, r_col, *_TERMS",
        "n_col, r_col, a_col, *_TERMS",
        "verify rows: a and r in their own columns",
        "tests/test_cli.py::test_verify_family_at_threshold_passes",
    ),
    Mutant(
        "lemma-row-swap", "cli.py",
        "r, check.lhs, check.rhs, check.gap",
        "r, check.rhs, check.lhs, check.gap",
        "lemma rows: lhs and rhs in their own columns",
        "tests/test_cli.py::test_lemma_part_a_scaled",
    ),
    Mutant(
        "verify-family-dimension", "cli.py",
        "n = ver._check_n(theorem_id, family.n)",
        "n = family.n",
        "verify --family: a single-variable theorem refuses an n >= 2 family",
        "tests/test_cli.py::test_verify_family_of_wrong_dimension_is_the_sweep_domain_error[C-unit:0.5,2-2]",
    ),
    Mutant(
        "scan-exit", "cli.py",
        "report.max_total <= ver._limit(ns.tol, True)",
        "report.max_total <= ver._limit(ns.tol, False)",
        "scan exit code: the closed-form tolerance",
        "tests/test_cli.py::test_scan_exit_reads_the_closed_form_tolerance[0.33333333334-None-1]",
    ),
    Mutant(
        "violates-nan", "verify.py",
        "return not breakdown.total <= _limit(",
        "return breakdown.total > _limit(",
        "violates: a NaN total is a violation",
        "tests/test_cli.py::test_verify_nan_tolerance_fails_closed[target0]",
    ),
    Mutant(
        "limit-default", "verify.py",
        "tol = TOL_CLOSED if closed_form else TOL_TRUNCATED",
        "tol = TOL_TRUNCATED",
        "_limit: closed-form rows default to TOL_CLOSED",
        "tests/test_cli.py::test_scan_exit_reads_the_closed_form_tolerance[0.33333333334-None-1]",
    ),
    Mutant(
        "sweep-flag", "verify.py",
        "flagged = flagged or not all(",
        "flagged = flagged and not all(",
        "theorem_sweep: the column flag makes a violating sweep list its violations",
        "tests/test_cli.py::test_verify_nan_tolerance_fails_closed[target1]",
    ),
    Mutant(
        "sweep-sort-skip", "verify.py",
        "if not all(all(map(operator.lt, v, v[1:])) for v in (ns, r_floats or (), grid)):",
        "if False:",
        "theorem_sweep: rows are sorted unless n, the radii and the grid strictly increase",
        "tests/test_cli.py::test_columnar_csv_equals_the_csv_writer_on_the_rows_of_every_golden_case[verify_t22_violation.csv]",
    ),
    Mutant(
        "lemma-ok-slack", "verify.py",
        "+ tail_K\n    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK,",
        "+ tail_K\n    return LemmaCheck(lhs, rhs, lhs <= rhs + 1e-6,",
        "LemmaCheck.ok of lemmas 1a and 1b",
        "tests/test_verify.py::test_lemma_verdict_fails_beyond_its_slack[lemma1a_check]",
    ),
    Mutant(
        "lemma1c-ok-slack", "verify.py",
        "lhs = family.majorant(bold_r)\n    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK,",
        "lhs = family.majorant(bold_r)\n    return LemmaCheck(lhs, rhs, lhs <= rhs + 1e-6,",
        "LemmaCheck.ok of lemma 1c",
        "tests/test_verify.py::test_lemma_verdict_fails_beyond_its_slack[lemma1c_check]",
    ),
    Mutant(
        "lemma-lhs-tail", "verify.py",
        "lhs = math.fsum(map(operator.mul, weighted, powers)) + tail_K",
        "lhs = math.fsum(map(operator.mul, weighted, powers))",
        "lemmas 1a and 1b: the certified tail is added to the lhs",
        "tests/test_cli.py::test_columnar_csv_equals_the_csv_writer_on_the_rows_of_every_golden_case[lemma_a_moebius.csv]",
    ),
    Mutant(
        "torus-ok", "series.py",
        "ok = certified and sup + tail <= 1.0 + TORUS_SLACK",
        "ok = certified",
        "torus_bound_check: ok needs sup + tail <= 1 + slack",
        "tests/test_series.py::test_torus_sup_above_one_fails_with_a_certificate",
    ),
    Mutant(
        "torus-slice-only", "series.py",
        "    if (b := series.slice) is None:\n"
        '        raise DomainError("the torus check needs a slice-backed series from expand")\n',
        "    b = series.slice\n",
        "torus_bound_check: a dictionary series is refused",
        "tests/test_series.py::test_torus_refuses_a_dictionary_series[by-hand]",
    ),
    Mutant(
        "radius-predicate", "verify.py",
        "if total <= 1.0:\n            lo = mid",
        "if total <= 1.0 + 1e-6:\n            lo = mid",
        "radius_search: a midpoint is kept only when its total is <= 1",
        "tests/test_acceptance.py::test_criterion_2_classical_radius_law",
    ),
    Mutant(
        "radius-top", "verify.py",
        "if total <= 1.0:\n        return RadiusResult(hi, (hi, cap), 0, False, certified)",
        "if False:\n        return RadiusResult(hi, (hi, cap), 0, False, certified)",
        "radius_search: a total of at most 1 at hi is the non-binding result",
        "tests/test_cli.py::test_radius_that_does_not_bind[csv]",
    ),
    Mutant(
        "infinite-tolerance", "verify.py",
        "if math.isinf(value):",
        "if False:",
        "check_tolerance: an infinite tolerance is refused",
        "tests/test_cli.py::test_non_finite_input_is_domain_error[argv10]",
    ),
    Mutant(
        "grid-finite", "verify.py",
        "if not (math.isfinite(sum(grid)) and least",
        "if not (least",
        "_check_grid: a NaN grid point is refused",
        "tests/test_verify.py::test_scans_and_sweeps_refuse_one_point_outside_the_unit_interval[1234-nan]",
    ),
    Mutant(
        "scan-grid-no-sum", "verify.py",
        '_check_grid(grid, grid[0], grid[-1], "scan grid")',
        '_check_grid((grid[0], grid[-1]), grid[0], grid[-1], "scan grid")',
        "sharpness_scan: the whole sorted grid is summed, as sorting may leave a NaN inside it",
        "tests/test_verify.py::test_scans_and_sweeps_refuse_one_point_outside_the_unit_interval[1234-nan]",
    ),
    Mutant(
        "scan-grid-ends", "verify.py",
        '_check_grid(grid, grid[0], grid[-1], "scan grid")',
        '_check_grid(grid, grid[-1], grid[0], "scan grid")',
        "sharpness_scan: the first point of the sorted grid is its least, the last its largest",
        "tests/test_verify.py::test_scan_grid_validation",
    ),
    Mutant(
        "csv-constant-equal", "cli.py",
        "all(map(operator.is_, column, repeat(first)))",
        "all(map(operator.eq, column, repeat(first)))",
        "emit: only a column of one object is formatted once (0.0 and -0.0 are equal)",
        "tests/test_cli.py::test_emit_matches_the_csv_writer_on_mixed_and_repeated_columns",
    ),
    Mutant(
        "csv-template-percent", "cli.py",
        '_fmt(first).replace("%", "%%")',
        "_fmt(first)",
        "emit: a column of one object is formatted into the line template with % escaped",
        "tests/test_cli.py::test_emit_writes_each_cell_as_the_csv_writer[%]",
    ),
    Mutant(
        "csv-template-float", "cli.py",
        'return "%.12g", column',
        'return "%.17g", column',
        "emit: a float column fills %.12g, the text of the cell formatter",
        "tests/test_cli.py::test_scan_rows_keep_each_total_in_its_column[csv]",
    ),
    # Rows are built from the columns when read.
    Mutant(
        "scan-rows-columns", "verify.py",
        "(self.a, self.total, self.perturbed_total)",
        "(self.a, self.perturbed_total, self.total)",
        "ScanReport.rows: each row takes its a, total and perturbed total from their columns",
        "tests/test_cli.py::test_scan_rows_keep_each_total_in_its_column[csv]",
    ),
    Mutant(
        "sweep-rows-keys", "verify.py",
        "repeat(self.theorem), repeat(n), self.grid, repeat(r), _rows(",
        "repeat(self.theorem), repeat(n), repeat(r), self.grid, _rows(",
        "SweepReport.rows: each row takes its a from the grid and its r from its set",
        "tests/test_cli.py::test_columnar_csv_equals_the_csv_writer_on_the_rows_of_every_golden_case[verify_c.csv]",
    ),
    Mutant(
        "sweep-order-unread", "verify.py",
        "return values if self.order is None else list(map(values.__getitem__, self.order))",
        "return values",
        "SweepReport: rows and CLI columns follow the sorted order of unsorted inputs",
        "tests/test_cli.py::test_columnar_csv_equals_the_csv_writer_on_the_rows_of_every_golden_case[verify_t22_violation.csv]",
    ),
    Mutant(
        "sweep-literal-reading", "verify.py",
        "_grid_columns(spec, reading,",
        "_grid_columns(spec, fun.INTERP_SLICE,",
        "theorem_sweep: the literal set is evaluated under the literal reading",
        "tests/test_verify.py::test_sweep_t21_no_violations_and_both_interpretations",
    ),
    Mutant(
        "sweep-violations-slice", "verify.py",
        "[row for row in report.rows if row.breakdown.interpretation == fun.INTERP_LITERAL]",
        "list(report.rows)",
        "theorem_sweep: only literal rows violate; slice rows are reported alongside",
        "tests/test_golden.py::test_golden_report[verify_t22_violation.json]",
    ),
    # What a scan reads from the theorem's preset.
    Mutant(
        "scan-perturb-field", "verify.py",
        "perturbed = (w, w_q + epsilon, w_x) if w_q else (w, w_q, w_x + epsilon)",
        "perturbed = (w, w_q, w_x + epsilon)",
        "sharpness_scan: epsilon perturbs the weight of A^2 when the preset has one",
        "tests/test_cli.py::test_columnar_csv_equals_the_csv_writer_on_the_rows_of_every_golden_case[scan_c_epsilon.csv]",
    ),
    Mutant(
        "scan-a-star", "verify.py",
        "a_star = c.a_star1 if spec.head == fun.HEAD_CONSTANT else c.a_star2",
        "a_star = c.a_star2 if spec.head == fun.HEAD_CONSTANT else c.a_star1",
        "sharpness_scan: a*_1 with the constant head, a*_2 with the squared head",
        "tests/test_cli.py::test_scan_exit_reads_the_closed_form_tolerance[0.33333333334-None-1]",
    ),
    # certified is set where a row is built, and nowhere else.
    Mutant(
        "certified-terms", "functionals.py",
        "            True, closed, interpretation,",
        "            False, closed, interpretation,",
        "_prepare: the rows of evaluate and the steps of radius searches are certified",
        "tests/test_cli.py::test_package_and_cli_need_no_numpy[numpy-blocked]",
    ),
    Mutant(
        "certified-grid", "functionals.py",
        "[True] * size",
        "[False] * size",
        "_grid_columns: the sweep rows are certified",
        "tests/test_cli.py::test_verify_sweep_at_large_dimension_exits_cleanly",
    ),
    Mutant(
        "zero-fold-unguarded", "functionals.py",
        "head + tail + zero for head, tail",
        "head + tail for head, tail",
        "_grid_columns: with no positive weight the zero terms fold into one signed zero",
        "tests/test_verify.py::test_grid_totals_drop_zero_weights_bit_for_bit[C-1--0.0]",
    ),
    Mutant(
        "zero-weight-extra", "functionals.py",
        "[w_x * 0.0] * size",
        "[0.0] * size",
        "_grid_columns: the constant column of a zero extra weight keeps the sign of a -0.0 weight",
        "tests/test_verify.py::test_sweep_keeps_the_sign_of_negative_zero_weights[classic]",
    ),
    Mutant(
        "literal-set-key", "functionals.py",
        "key = at, coords if literal else None",
        "key = at, literal or None",
        "_grid_columns: a literal set at n > 1 is keyed by its polyradius, not shared over n",
        "tests/test_verify.py::test_one_sweeps_dict_gives_each_set_the_columns_of_a_fresh_dict",
    ),
    Mutant(
        "rule-columns-key", "functionals.py",
        "rules = shared.setdefault(at, [])",
        'rules = shared.setdefault("rules", [])',
        "_grid_columns: the head and tail columns are kept per sigma, not shared over sigmas",
        "tests/test_verify.py::test_one_sweeps_dict_gives_each_set_the_columns_of_a_fresh_dict",
    ),
    # The total a radius search reads at each step.
    Mutant(
        "search-literal-fused", "functionals.py",
        "if total_grid is None or _literal(spec.area_interpretation, family.n):",
        "if total_grid is None:",
        "_search_total: a literal reading at n >= 2 keeps _prepare's core, not the slice total",
        "tests/test_cli.py::test_radius_searches_the_preset_on_the_slice_reading",
    ),
    Mutant(
        "search-head", "functionals.py",
        "(family.a,), HEADS.index(spec.head), _weights(spec)",
        "(family.a,), 0, _weights(spec)",
        "_search_total: the column total reads the spec's head, not |a_0| for every spec",
        "tests/test_verify.py::test_radius_search_equals_a_bisection_on_public_evaluate"
        "[thm_e-MoebiusDisk-1e-09]",
    ),
    # Rounding widenings of the certified Blaschke circle maximum.
    Mutant(
        "blaschke-widen", "series.py",
        "widen = 1.0 + (6 * m + 4) * _ULP",
        "widen = 1.0",
        "_blaschke_sup: each F value is widened for the rounding of its product",
        "tests/test_golden.py::test_golden_report[verify_blaschke.json]",
    ),
    Mutant(
        "blaschke-slack", "series.py",
        "slack = (16 + 2 * m) * _ULP",
        "slack = 0.0",
        "_blaschke_sup: the G and G' enclosures are widened for their rounding",
        equivalent="no input is known that it changes: it moves an enclosure end by (16 + 2m) ulp"
        " of its size, and a decision flips only when that end lies so near 0 while the"
        " enclosure is O(h) wide; every bound is bit-identical with and without it on the"
        " 204 zero sets of test_blaschke_sup.py and on 4,200 random and symmetric ones",
    ),
    Mutant(
        "blaschke-amp", "series.py",
        "amp = 2.0 * sigma * math.sqrt(mod2) * (1.0 + 4.0 * _ULP)",
        "amp = 2.0 * sigma * math.sqrt(mod2)",
        "_blaschke_sup: the amplitude bound of x_j and x_j' is rounded up",
        "tests/test_golden.py::test_golden_library",
    ),
    Mutant(
        "blaschke-newton", "series.py",
        "bound = ft * math.exp(growth) * (1.0 + 4.0 * _ULP)",
        "bound = ft * math.exp(growth)",
        "_blaschke_sup: the log-concave arc bound is rounded up",
        "tests/test_golden.py::test_golden_report[verify_blaschke.json]",
    ),
    Mutant(
        "blaschke-root", "series.py",
        "math.nextafter(root, math.inf) if root else 0.0",
        "root",
        "_blaschke_sup: the square root is rounded up",
        "tests/test_golden.py::test_golden_report[verify_blaschke.json]",
    ),
    Mutant(
        "blaschke-dx", "series.py",
        "dx = 8.0 * _ULP * sigma * (abs(u) + abs(v))",
        "dx = 0.0",
        "_blaschke_sup: x_j is widened for its rounding",
        "tests/test_golden.py::test_golden_report[verify_blaschke.json]",
    ),
    Mutant(
        "blaschke-na", "series.py",
        "dx + 2.0 * _ULP * A, dx + 2.0 * _ULP * B))",
        "dx, dx + 2.0 * _ULP * B))",
        "_blaschke_sup: the numerator row bound nA covers the rounding of A_j - x_j",
        "tests/test_golden.py::test_golden_report[verify_blaschke.json]",
    ),
    Mutant(
        "blaschke-nb", "series.py",
        "dx + 2.0 * _ULP * A, dx + 2.0 * _ULP * B))",
        "dx + 2.0 * _ULP * A, dx))",
        "_blaschke_sup: the denominator row bound nB covers the rounding of B_j - x_j",
        "tests/test_golden.py::test_golden_report[verify_blaschke.json]",
    ),
    Mutant(
        "blaschke-curvature", "series.py",
        "curvature = (second + first * first) * (1.0 + 1e-10)",
        "curvature = second + first * first",
        "_blaschke_sup: the curvature bound K2 >= max abs(F'') is widened for its rounding",
        equivalent="K2 only decides whether an arc is split or settled below the largest F seen,"
        " except at depth 30, where the bound top + K2 w^2/8 (w < 7.4e-10) moves by 1e-10"
        " of its excess; every bound is bit-identical with and without it on the 204 zero"
        " sets of test_blaschke_sup.py and on 2,963 random, polygonal, conjugate-pair and"
        " repeated ones (those that finish within 0.5 s)",
    ),
    Mutant(
        "blaschke-chord-width", "series.py",
        "w = (b - a) * (1.0 + 2.0 * _ULP)",
        "w = b - a",
        "_blaschke_sup: the chord bound's arc width is rounded up",
        equivalent="b - a is exact: every arc starts at 0 or at a float at least half its end"
        " (Sterbenz), so the widening multiplies an exact width; bit-identical on the"
        " same 3,167 zero sets",
    ),
    Mutant(
        "blaschke-arc-width", "series.py",
        "(b - mid if b - mid >= mid - a else mid - a) * (1.0 + 2.0 * _ULP))",
        "(b - mid if b - mid >= mid - a else mid - a))",
        "_blaschke_sup: the enclosure's half-width is rounded up",
        equivalent="b - mid and mid - a are exact by the same Sterbenz argument as the chord width;"
        " bit-identical on the same 3,167 zero sets",
    ),
    # The Blaschke slice cache and the oracle's integer keys.
    Mutant(
        "slice-prefix-short", "series.py",
        "if held is not self.zeros or len(b) <= K:",
        "if held is not self.zeros or len(b) < K:",
        "FiniteBlaschke.slice: the held slice serves degree K only when it reaches b_K",
        "tests/test_functionals.py::test_total_monotone_in_bold_r",
    ),
    Mutant(
        "slice-key-equal", "series.py",
        "held is not self.zeros",
        "held != self.zeros",
        "FiniteBlaschke.slice: the slot is read with is, which tells signed-zero variants apart",
        "tests/test_series.py::test_blaschke_slice_cache_returns_fresh_exact_lists",
    ),
    Mutant(
        "oracle-radix", "series.py",
        "radix = K + 1\n",
        "radix = K\n",
        "oracle_expand: codes are in base K + 1, above every exponent and degree",
        "tests/test_acceptance.py::test_criterion_8_oracle_equivalence",
    ),
    Mutant(
        "area-square-pow", "series.py",
        "/ (unit - aa * sigma * sigma) ** 2 for a in avals",
        "/ ((d := unit - aa * sigma * sigma) * d) for a in avals",
        "area_grid: the denominator is squared by the libm pow the golden bits rest on",
        "tests/test_series.py::test_moebius_column_rules_equal_the_family_methods[MoebiusDisk-1]",
    ),
    # The total columns of a scan.
    Mutant(
        "total-square-pow", "series.py",
        "(A := ss * c1 * c1 / (one - aa * sigma * sigma) ** 2) + w_q",
        "(A := ss * c1 * c1 / ((d := one - aa * sigma * sigma) * d)) + w_q",
        "total_grid: the area denominator is squared by the libm pow, as in area_grid",
        "tests/test_series.py::test_area_grid_squares_its_denominator_with_pow[MoebiusDisk-1]",
    ),
    Mutant(
        "total-zero-weight-sign", "series.py",
        "+ w * (A := ss * c1 * c1 / (one - aa * sigma * sigma) ** 2) + w_q",
        "+ (w * A if (A := ss * c1 * c1 / (one - aa * sigma * sigma) ** 2, w)[1] else -0.0) + w_q",
        "total_grid: a zero weight's term is summed, with its sign",
        "tests/test_series.py::test_moebius_column_rules_are_exact_on_fractions",
    ),
    Mutant(
        "scan-perturbed-weights", "verify.py",
        "cls.total_grid(grid, sigma, head, perturbed))",
        "cls.total_grid(grid, sigma, head, (w, w_q, w_x)))",
        "sharpness_scan: the perturbed total column reads the perturbed weights",
        "tests/test_cli.py::test_scan_rows_keep_each_total_in_its_column[csv]",
    ),
    # The Cauchy circle of the Blaschke tails.
    Mutant(
        "cauchy-round-up", "series.py",
        "        M *= 1.0 + 8.0 * _ULP * condition\n",
        "",
        "FiniteBlaschke._cauchy: M(R) is rounded up",
        "tests/test_blaschke_tails.py::test_cauchy_circle_bound_is_rounded_up",
    ),
    Mutant(
        "cauchy-radius", "series.py",
        "R = rho**-0.95",
        "R = rho**-1.0",
        "FiniteBlaschke._cauchy: R lies below 1/rho",
        "tests/test_blaschke_tails.py::test_cauchy_circle_bound_is_rounded_up",
    ),
    # Every certified tail added to a total.
    Mutant(
        "family-majorant-tail", "series.py",
        "        return partial + tail\n",
        "        return partial\n",
        "_Family.majorant: the certified tail is added to the slice sum",
        "tests/test_cli.py::test_columnar_csv_equals_the_csv_writer_on_the_rows_of_every_golden_case[lemma_c_blaschke.csv]",
    ),
    Mutant(
        "family-area-tail", "series.py",
        "return partial + self.sq_tail(K, sigma)",
        "return partial",
        "_Family.area: the certified tail is added to the slice sum",
        "tests/test_functionals.py::test_power_of_z_terms_are_upper_bounds[6-0.001]",
    ),
    Mutant(
        "literal-area-tail", "series.py",
        "math.fsum(map(operator.mul, row, W)) + tail for row",
        "math.fsum(map(operator.mul, row, W)) for row",
        "literal_area_grid: the slice tail is added to the weighted sum",
        "tests/test_cli.py::test_verify_family_multidimensional_rows_are_kept[T23-unit:0.4,3-expected0]",
    ),
    # Input guards of the exit-65 paths.
    Mutant(
        "radius-finite", "functionals.py",
        "if not all(0.0 <= r < math.inf for r in cs):",
        "if not all(0.0 <= r for r in cs):",
        "RadiusSpec: an infinite radius is refused",
        "tests/test_functionals.py::test_radius_spec_rejects_non_finite[inf]",
    ),
    Mutant(
        "radius-cap", "functionals.py",
        "radius.bold_r >= family.cap:",
        "radius.bold_r > family.cap:",
        "_check_radius_for: a radius at the domain cap is refused",
        "tests/test_cli.py::test_domain_error_exit_code",
    ),
    Mutant(
        "weight-finite", "functionals.py",
        "(weight := ser._real(getattr(self, name), name)) < math.inf:",
        "(weight := ser._real(getattr(self, name), name)):",
        "FunctionalSpec: an infinite weight is refused",
        "tests/test_functionals.py::test_spec_refuses_negative_or_non_finite_weights[inf-area_weight]",
    ),
    Mutant(
        "weight-nonnegative", "functionals.py",
        "if not 0.0 <= (weight := ser._real(getattr(self, name), name))",
        "if not -math.inf < (weight := ser._real(getattr(self, name), name))",
        "FunctionalSpec: a negative weight is refused",
        "tests/test_functionals.py::test_spec_refuses_negative_or_non_finite_weights[-1e-300-area_weight]",
    ),
    Mutant(
        "blaschke-modulus", "series.py",
        "if not all(abs(w) < 1.0 for w in zs):",
        "if any(abs(w) >= 1.0 for w in zs):",
        "FiniteBlaschke: a zero of modulus >= 1 or NaN is refused",
        "tests/test_cli.py::test_non_finite_input_is_domain_error[argv2]",
    ),
    Mutant(
        "constant-modulus", "series.py",
        "if not abs(cc) <= 1.0:",
        "if abs(cc) > 1.0:",
        "ConstantFn: a modulus above 1 or NaN is refused",
        "tests/test_cli.py::test_non_finite_input_is_domain_error[argv1]",
    ),
    Mutant(
        "diagonal-sigma-cap", "series.py",
        'if not 0.0 <= (bold_r := _real(bold_r, "radius")) <= family.cap:',
        'if (bold_r := _real(bold_r, "radius")) < 0.0 or bold_r > family.cap:',
        "_diagonal_sigma: a NaN radius is refused",
        "tests/test_verify.py::test_input_guards_raise_their_class_and_message[default_truncation-nan]",
    ),
    # The key reader of coefficient maps.
    Mutant(
        "key-nonnegative", "series.py",
        "if not exps or len(exps) != n or min(exps) < 0:",
        "if not exps or len(exps) != n:",
        "_exponents: a negative exponent is refused",
        "tests/test_series.py::test_multi_index_rejects_negative_exponents",
    ),
    Mutant(
        "key-length", "series.py",
        "if not exps or len(exps) != n or min(exps) < 0:",
        "if not exps or min(exps) < 0:",
        "_exponents: a key of another length than n is refused",
        "tests/test_series.py::test_coefficient_series_names_a_key_that_is_not_a_multi_index",
    ),
]


def _pytest(src: Path, *args: str) -> tuple[int, str]:
    """The exit status and stdout of pytest run with args from the
    repository root, on the package copy src."""
    env = {
        **os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
        "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return proc.returncode, proc.stdout


def first_failed(out: str) -> str:
    """The first failing node id in pytest's -rfE summary out, or ""."""
    match = FAILED.search(out)
    return match[1] if match else ""


def verdict(mutant: Mutant, killer: int | None, suite: int | None, failed: str) -> tuple[str, bool]:
    """(result, bad) of one mutant.  killer is the exit status of its killer
    run alone, or None when it names none; suite is that of the suite run,
    or None when the killer failed and the suite did not run; failed is the
    first failing id of the suite run."""
    if killer == 1:
        return f"killed by `{mutant.killer}`", False
    if suite == 1:
        result = f"killed by `{failed}`"
    elif suite == 0:
        result = f"survived (equivalent: {mutant.equivalent})" if mutant.equivalent else "survived"
    else:
        return f"pytest exit {suite}", True
    if killer is not None:
        return f"{result}; stale killer `{mutant.killer}` (exit {killer})", True
    if suite == 1:
        return f"{result}; no killer", True
    return result, not mutant.equivalent


def unmutated(suite: int, killers: dict[str, int]) -> tuple[str, bool]:
    """(result, bad) of the unmutated copy, from the exit status of the
    suite run and of each killer run alone."""
    if suite:
        return f"pytest exit {suite}", True
    failing = [f"`{killer}` (exit {code})" for killer, code in killers.items() if code]
    if failing:
        return "fails alone: " + ", ".join(failing), True
    return "passed", False


def run(mutant: Mutant | None) -> tuple[str, float, bool]:
    """(result, seconds, bad) for one mutant, or for the unmutated copy."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is None:
            suite = _pytest(src, "-x")[0]
            killers = {} if suite else dict.fromkeys(m.killer for m in MUTANTS if m.killer)
            result, bad = unmutated(suite, {k: _pytest(src, k)[0] for k in killers})
        else:
            path = src / "bohrineq" / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.snippet) != 1:
                return "snippet not found", 0.0, True
            path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            killer = _pytest(src, mutant.killer)[0] if mutant.killer else None
            suite, out = _pytest(src, "-x", "-rfE") if killer != 1 else (None, "")
            result, bad = verdict(mutant, killer, suite, first_failed(out))
    return result, time.perf_counter() - start, bad


def main() -> int:
    print("| mutant | guard | result | s |\n|---|---|---|---:|")
    result, seconds, bad = run(None)
    print(
        f"| (none) | the unmutated copy passes, and each killer alone | {result} | {seconds:.1f} |",
        flush=True,
    )
    if bad:
        return 1
    failed = False
    for mutant in MUTANTS:
        result, seconds, bad = run(mutant)
        failed = failed or bad
        print(f"| `{mutant.name}` | {mutant.guard} | {result} | {seconds:.1f} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
