"""The paper's artifacts: one function each, computing its rows as numbers.

Every function takes the bench context of one tier (a
:class:`repro.benchreport.BenchContext`, or anything with its ``lab``,
``small_lab``, ``seed`` and ``pick``) and returns an :class:`Artifact`:
the tables of numbers the report prints, and a ``summary`` of named
numbers derived from those rows. The artifact's bench scenario
(``benchmarks/bench_<name>.py``) reports the summary as its metrics and
floors the paper's claims on them; ``repro report``
(:mod:`repro.experiments.run_all`) renders the same value. So every
summary number in the report is that scenario's metric for the same
tier and seed.

A "below" claim is summarized as a complement (``x_complement`` is
``1 - x``) and a monotonicity or per-item claim as a share (``*_frac``),
so each claim reads as a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..calibration import Calibrator
from ..core import LeastExpectedCostChooser, PlanAncestry, Variant
from ..core.concurrency import ConcurrentPredictor
from ..core.covariance import _shared_info, g_factor
from ..hardware import PROFILES, HardwareSimulator
from ..mathstats import pearson, spearman
from ..optimizer.cost_model import COST_UNIT_NAMES
from ..plan import OpKind
from ..workloads import seljoin_workload
from . import metrics
from .plots import ascii_lines, ascii_scatter
from .runner import ExperimentLab
from .settings import BENCHMARKS, MACHINES, SAMPLING_RATIOS

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "Table",
    "bounds",
    "calibration",
    "concurrency",
    "fig3_outliers",
    "fig5_pr_curves",
    "fig6_scatter_cases",
    "fig8_ablation",
    "fig9_overhead",
    "gee_ablation",
    "histogram_vs_sampling",
    "lec",
    "table4_correlations",
    "table5_dn",
    "table6_sel_error_corr",
    "table7_sel_corr",
    "table8_rel_errors",
    "table9_large_error_corr",
]

#: Sampling ratios of the selectivity study (Tables 6-9, Figure 12).
SELECTIVITY_RATIOS = (0.01, 0.05, 0.1, 0.2)

#: Sampling ratios of the Figure 8/10 ablation. The paper sweeps
#: SR = 1e-4..1e-2 on databases ~50x larger; matching the absolute
#: sample sizes puts the interesting regime at 1e-2..2e-1 here.
ABLATION_RATIOS = (0.01, 0.05, 0.2)
ABLATION_VARIANTS = (Variant.ALL, Variant.NO_VAR_C, Variant.NO_VAR_X, Variant.NO_COV)

#: Multiprogramming levels of the concurrency sweep.
MPL_LEVELS = (1, 2, 4, 8)

_GRID_HEADERS = ("SR",) + tuple(f"{b} {m}" for b in BENCHMARKS for m in MACHINES)
_BENCHMARK_HEADERS = ("SR",) + BENCHMARKS


@dataclass(frozen=True)
class Table:
    """One printed table: numbers, ``(rs, rp)`` pairs, labels or None."""

    heading: str
    headers: tuple[str, ...]
    rows: list[list]
    plot: str = ""


@dataclass(frozen=True)
class Artifact:
    """One paper artifact: its tables and the numbers its claims read."""

    title: str
    tables: tuple[Table, ...]
    summary: dict[str, float]


def _cell_grid(lab, value) -> tuple[list[Table], list]:
    """Per database, one row per SR of ``value(cell)`` per benchmark and
    machine."""
    tables, values = [], []
    for db_label in lab.databases:
        rows = []
        for sr in SAMPLING_RATIOS:
            row = [sr]
            for benchmark in BENCHMARKS:
                for machine in MACHINES:
                    row.append(value(lab.run_cell(db_label, benchmark, machine, sr)))
                    values.append(row[-1])
            rows.append(row)
        tables.append(Table(db_label, _GRID_HEADERS, rows))
    return tables, values


def table4_correlations(ctx) -> Artifact:
    """Table 4 / Figure 2: rs (rp) of sigma vs actual error over the grid.

    The paper reports rs mostly above 0.7.
    """
    tables, pairs = _cell_grid(ctx.lab, lambda cell: (cell.rs, cell.rp))
    all_rs = np.asarray([rs for rs, _ in pairs])
    return Artifact("Table 4 / Figure 2 — rs (rp) correlations", tuple(tables), {
        "rs_median": float(np.median(all_rs)),
        "rs_frac_gt_05": float((all_rs > 0.5).mean()),
        "rs_mean": float(all_rs.mean()),
        "cells": float(len(all_rs)),
    })


def table5_dn(ctx) -> Artifact:
    """Table 5 / Figure 4: the distributional distance Dn over the grid.

    The paper reports Dn mostly below 0.3: the predicted error
    likelihoods Pr(alpha) track the observed Prn(alpha).
    """
    tables, all_dn = _cell_grid(ctx.lab, lambda cell: cell.dn)
    all_dn = np.asarray(all_dn)
    dn_median = float(np.median(all_dn))
    return Artifact("Table 5 / Figure 4 — Dn distances", tuple(tables), {
        "dn_median": dn_median,
        "dn_median_complement": 1.0 - dn_median,
        "dn_frac_lt_04": float((all_dn < 0.4).mean()),
        "dn_mean": float(all_dn.mean()),
    })


def _selectivity_grid(lab, cell) -> tuple[list[Table], list]:
    """Per database, one row per SR of ``cell(records)`` per benchmark."""
    tables, values = [], []
    for db_label in lab.databases:
        rows = []
        for sr in SELECTIVITY_RATIOS:
            row = [sr]
            for benchmark in BENCHMARKS:
                value = cell(lab.selectivity_records(db_label, benchmark, sr))
                row.append(value)
                values.append(value)
            rows.append(row)
        tables.append(Table(db_label, _BENCHMARK_HEADERS, rows))
    return tables, values


def _finite_rs(pairs) -> list[float]:
    return [rs for rs, _ in pairs if np.isfinite(rs)]


def table6_sel_error_corr(ctx) -> Artifact:
    """Table 6: rs (rp) of estimated selectivity std vs actual error.

    Weaker than Table 4 (errors are often tiny), which motivates
    Table 9's restriction to large-error operators.
    """
    def cell(records):
        stds = [r.estimated_std for r in records]
        errs = [r.error for r in records]
        return spearman(stds, errs), pearson(stds, errs)

    tables, pairs = _selectivity_grid(ctx.small_lab, cell)
    all_rs = _finite_rs(pairs)
    return Artifact(
        "Table 6 — rs (rp), estimated vs actual selectivity errors",
        tuple(tables),
        {
            "rs_mean": float(np.mean(all_rs)),
            "rs_median": float(np.median(all_rs)),
            "cells": float(len(all_rs)),
        },
    )


def table7_sel_corr(ctx) -> Artifact:
    """Table 7 / Figure 12: rs (rp) of estimated vs actual selectivities.

    The paper's estimates hug the diagonal (rs and rp close to 1).
    """
    def cell(records):
        estimated = [r.estimated for r in records]
        actual = [r.actual for r in records]
        return spearman(estimated, actual), pearson(estimated, actual)

    lab = ctx.small_lab
    tables, pairs = _selectivity_grid(lab, cell)
    micro = _BENCHMARK_HEADERS.index("MICRO")
    uniform = next(t for t in tables if t.heading == "uniform-small")
    micro_rp = next(row for row in uniform.rows if row[0] == 0.1)[micro][1]
    scatter = lab.selectivity_records("skewed-small", "MICRO", 0.05)
    tables = [
        Table(t.heading, t.headers, t.rows, ascii_scatter(
            [r.estimated for r in scatter],
            [r.actual for r in scatter],
            x_label="estimated selectivity (Figure 12: MICRO, SR=0.05)",
            y_label="actual",
        ) if t.heading == "skewed-small" else "")
        for t in tables
    ]
    return Artifact(
        "Table 7 / Figure 12 — rs (rp), estimated vs actual selectivities",
        tuple(tables),
        {
            "rs_mean": float(np.mean(_finite_rs(pairs))),
            "micro_pearson_sr01": float(micro_rp),
        },
    )


def table8_rel_errors(ctx) -> Artifact:
    """Table 8: mean relative selectivity errors, shrinking as SR grows."""
    def cell(records):
        rels = [
            r.relative_error
            for r in records
            if r.actual > 0 and not np.isnan(r.relative_error)
        ]
        return float(np.mean(rels)) if rels else float("nan")

    tables, _ = _selectivity_grid(ctx.small_lab, cell)
    summary, shrinks = {}, []
    for table in tables:
        micro = [row[1] for row in table.rows]
        slug = table.heading.replace("-", "_")
        summary[f"micro_err_sr_min_{slug}"] = float(micro[0])
        summary[f"micro_err_sr_max_{slug}"] = float(micro[-1])
        summary[f"micro_shrink_{slug}"] = (
            float(micro[-1] / micro[0]) if micro[0] else float("nan")
        )
        shrinks.append(micro[-1] < micro[0])
    summary["micro_shrink_frac"] = float(np.mean(shrinks))
    return Artifact(
        "Table 8 — mean relative selectivity errors", tuple(tables), summary
    )


def table9_large_error_corr(ctx) -> Artifact:
    """Table 9: Table 6 restricted to relative errors > 0.2.

    Where the estimation errors are large, the estimated standard
    deviations do track them. Cells with fewer than 3 such operators
    print as a dash.
    """
    def cell(records):
        large = [r for r in records if r.actual > 0 and r.relative_error > 0.2]
        if len(large) < 3:
            return None
        stds = [r.estimated_std for r in large]
        errs = [r.error for r in large]
        return spearman(stds, errs), pearson(stds, errs)

    tables, pairs = _selectivity_grid(ctx.small_lab, cell)
    finite = _finite_rs(pair for pair in pairs if pair is not None)
    return Artifact(
        "Table 9 — rs (rp) restricted to relative errors > 0.2",
        tuple(tables),
        {
            "restricted_rs_median": float(np.median(finite)),
            "restricted_cells": float(len(finite)),
        },
    )


def fig3_outliers(ctx) -> Artifact:
    """Figure 3: rs is robust to outliers, rp is not.

    Drops the largest-sigma query of a MICRO cell: rp jumps, rs barely
    moves.
    """
    cell = ctx.small_lab.run_cell("uniform-small", "MICRO", "PC2", 0.01)
    trimmed = cell.without_largest_sigma()
    rs_delta = abs(cell.rs - trimmed.rs)
    rows = [
        ["full population", cell.rs, cell.rp],
        ["largest-sigma query removed", trimmed.rs, trimmed.rp],
        ["absolute change", rs_delta, abs(cell.rp - trimmed.rp)],
    ]
    return Artifact(
        "Figure 3 — robustness of rs vs rp to outliers",
        (Table("MICRO, uniform-small, PC2, SR=0.01",
               ("population", "rs", "rp"), rows),),
        {
            "rs_full": float(cell.rs),
            "rs_trimmed": float(trimmed.rs),
            "rp_full": float(cell.rp),
            "rp_trimmed": float(trimmed.rp),
            "rs_delta": float(rs_delta),
        },
    )


def fig5_pr_curves(ctx) -> Artifact:
    """Figure 5: predicted Pr(alpha) vs observed Prn(alpha).

    On uniform-large, PC2, SR = 0.05. The curves track each other and
    both rise with alpha.
    """
    tables, summary, gap_means = [], {}, []
    prn_monotone, pr_monotone = [], []
    for benchmark in BENCHMARKS:
        cell = ctx.lab.run_cell("uniform-large", benchmark, "PC2", 0.05)
        alphas, empirical, predicted = metrics.pr_curves(
            cell.mus, cell.sigmas, cell.actuals
        )
        gaps = np.abs(np.asarray(empirical) - np.asarray(predicted))
        summary[f"gap_mean_{benchmark.lower()}"] = float(gaps.mean())
        summary[f"dn_{benchmark.lower()}"] = float(cell.dn)
        gap_means.append(float(gaps.mean()))
        prn_monotone.append(all(np.diff(empirical) >= -1e-12))
        pr_monotone.append(all(np.diff(predicted) >= 0))
        tables.append(Table(
            benchmark,
            ("alpha", "Prn(alpha)", "Pr(alpha)"),
            [list(row) for row in zip(alphas, empirical, predicted)],
            ascii_lines(
                alphas,
                {"observed Prn": empirical, "predicted Pr": predicted},
                x_label="alpha",
            ),
        ))
    summary["gap_mean_max_complement"] = 1.0 - max(gap_means)
    summary["prn_monotone_frac"] = float(np.mean(prn_monotone))
    summary["pr_monotone_frac"] = float(np.mean(pr_monotone))
    return Artifact(
        "Figure 5 — Pr(alpha) vs Prn(alpha) (uniform-large, PC2, SR = 0.05)",
        tuple(tables),
        summary,
    )


def fig6_scatter_cases(ctx) -> Artifact:
    """Figure 6: sigma vs actual error in a good and a weaker case.

    Case (3), TPCH on skewed-large at SR = 0.05, correlates strongly;
    case (4), TPCH on uniform-small at SR = 0.01, less so.
    """
    good = ctx.lab.run_cell("skewed-large", "TPCH", "PC1", 0.05)
    weak = ctx.lab.run_cell("uniform-small", "TPCH", "PC1", 0.01)
    tables = []
    for label, cell in (("case (3): both good", good), ("case (4): weaker", weak)):
        tables.append(Table(
            f"{label}: {cell.benchmark} {cell.database} {cell.machine} "
            f"SR={cell.sampling_ratio}",
            ("sigma (s)", "abs. error (s)"),
            [[s, e] for s, e in zip(cell.sigmas, cell.errors)],
            # log-log: the raw scale is dominated by deep-join queries
            ascii_scatter(
                np.log10(np.maximum(cell.sigmas, 1e-9)),
                np.log10(np.maximum(cell.errors, 1e-9)),
                x_label="log10 sigma",
                y_label="log10 error",
            ),
        ))
    return Artifact("Figure 6 — case studies", tuple(tables), {
        "rs_good": float(good.rs),
        "rp_good": float(good.rp),
        "rs_weak": float(weak.rs),
        "rp_weak": float(weak.rp),
    })


def fig8_ablation(ctx) -> Artifact:
    """Figures 8 / 10: rs of All / NoVar[c] / NoVar[X] / NoCov.

    TPCH on uniform-small, PC1, across low sampling ratios. Ignoring
    Var[c] costs correlation, ignoring Var[X] hurts when samples are
    small, and the complete version is the most robust. The ablation
    runs on a lab of its own with more TPCH queries (14 quick, 28 full)
    than the shared one.
    """
    database = ctx.small_lab.databases["uniform-small"]
    lab = ExperimentLab(
        databases={"uniform-small": database},
        seed=ctx.seed,
        query_counts={"TPCH": ctx.pick(quick=14, full=28)},
        calibration_repetitions=8,
    )
    rows = []
    for sr in ABLATION_RATIOS:
        row = [sr]
        for variant in ABLATION_VARIANTS:
            cell = lab.run_cell("uniform-small", "TPCH", "PC1", sr, variant=variant)
            row.append(cell.rs)
        rows.append(row)
    all_scores, no_c, no_x, no_cov = (
        np.array([row[column] for row in rows]) for column in range(1, 5)
    )
    return Artifact(
        "Figures 8 / 10 — ablation (rs of All vs simplified variants)",
        (Table("TPCH, uniform-small, PC1",
               ("SR",) + tuple(v.value for v in ABLATION_VARIANTS), rows),),
        {
            "rs_all_min": float(all_scores.min()),
            "rs_all_mean": float(all_scores.mean()),
            "rs_no_var_c_mean": float(no_c.mean()),
            "rs_no_var_x_mean": float(no_x.mean()),
            "rs_no_cov_mean": float(no_cov.mean()),
            # All beats NoVar[c] once samples are plentiful (SR > 0.01).
            "rs_all_margin_no_var_c": float(
                all_scores[1:].mean() - no_c[1:].mean()
            ),
            "rs_all_margin_no_var_x": float(all_scores.mean() - no_x.mean()),
        },
    )


def fig9_overhead(ctx) -> Artifact:
    """Figures 9 / 11: relative overhead of the sampling pass (PC1).

    It grows with the sampling ratio and stays well below the query
    itself at SR = 0.05.
    """
    lab = ctx.lab
    tables, summary, monotone, mids = [], {}, [], []
    for benchmark in BENCHMARKS:
        rows = []
        for sr in SAMPLING_RATIOS:
            row = [sr]
            for db_label in lab.databases:
                row.append(lab.relative_overhead(db_label, benchmark, "PC1", sr))
            rows.append(row)
        mid = float(np.nanmean(rows[1][1:]))
        summary[f"overhead_mid_{benchmark.lower()}"] = mid
        mids.append(mid)
        first_db_column = [row[1] for row in rows]
        monotone.append(first_db_column == sorted(first_db_column))
        tables.append(Table(benchmark, ("SR",) + tuple(lab.databases), rows))
    summary["monotone_frac"] = float(np.mean(monotone))
    summary["overhead_mid_max_complement"] = 1.0 - max(mids)
    return Artifact(
        "Figures 9 / 11 — relative sampling overhead", tuple(tables), summary
    )


def bounds(ctx) -> Artifact:
    """Tightness of the covariance bounds B1 / B2 / B3 (Theorem 7, A.8).

    Over correlated operator pairs of SELJOIN plans (uniform-small,
    SR = 0.05). B1 <= B2 always holds; B1 <= B3 is asymptotic, so with
    plug-in estimates it holds for most pairs, not all.
    """
    lab = ctx.small_lab
    pairs = []
    for index, query in enumerate(lab.executed_queries("uniform-small", "SELJOIN")):
        estimate = lab.prepared("uniform-small", "SELJOIN", index, 0.05).estimate
        ancestry = PlanAncestry.from_plan(query.planned.root)
        nodes = [
            s for s in estimate.per_node.values()
            if s.source == "sample" and s.variance > 0
        ]
        for u in nodes:
            for v in nodes:
                if u.op_id >= v.op_id or not ancestry.related(u.op_id, v.op_id):
                    continue
                shared, m, n = _shared_info(u, v)
                if m == 0:
                    continue
                pairs.append((
                    math.sqrt(
                        max(u.restricted_variance(shared), 0.0)
                        * max(v.restricted_variance(shared), 0.0)
                    ),
                    math.sqrt(u.variance * v.variance),
                    (1.0 - (1.0 - 1.0 / n) ** m)
                    * g_factor(u.mean) * g_factor(v.mean),
                ))
    b1, b2, b3 = (np.array([pair[k] for pair in pairs]) for k in range(3))
    frac_le_b2 = float((b1 <= b2 + 1e-15).mean())
    frac_le_b3 = float((b1 <= b3 + 1e-15).mean())
    rows = [
        ["mean", b1.mean(), b2.mean(), b3.mean()],
        ["median", np.median(b1), np.median(b2), np.median(b3)],
        ["share with B1 <= Bk", None, frac_le_b2, frac_le_b3],
    ]
    return Artifact(
        "Covariance bound tightness (SELJOIN, uniform-small, SR = 0.05)",
        (Table(f"{len(pairs)} correlated operator pairs",
               ("stat", "B1", "B2", "B3"), rows),),
        {
            "pairs": float(len(pairs)),
            "b1_mean": float(b1.mean()),
            "b2_mean": float(b2.mean()),
            "b3_mean": float(b3.mean()),
            "frac_b1_le_b2": frac_le_b2,
            "frac_b1_le_b3": frac_le_b3,
        },
    )


def calibration(ctx, machines=MACHINES) -> Artifact:
    """Table 1: the cost units recovered by calibration, per machine.

    Calibration (the paper's offline step) must land near the simulated
    hardware's true unit means. It runs on a simulator of its own, so
    it reads the same on every tier.
    """
    tables, summary = [], {}
    for machine in machines:
        units = Calibrator(
            HardwareSimulator(PROFILES[machine], rng=0), repetitions=10
        ).calibrate()
        profile = PROFILES[machine]
        rows = []
        for name in COST_UNIT_NAMES:
            truth = profile.units[name].mean
            estimate = units.mean(name)
            rows.append([
                name, truth, estimate, units.distribution(name).std,
                abs(estimate - truth) / truth,
            ])
        rel_err_max = float(max(row[-1] for row in rows))
        summary[f"rel_err_max_{machine.lower()}"] = rel_err_max
        summary[f"rel_err_max_{machine.lower()}_complement"] = 1.0 - rel_err_max
        tables.append(Table(
            machine, ("unit", "true mean", "calibrated", "std", "rel err"), rows
        ))
    return Artifact("Table 1 — calibrated cost units", tuple(tables), summary)


def _aggregate_errors(lab, use_gee: bool) -> list[float]:
    errors = []
    executed = lab.executed_queries("uniform-small", "TPCH")
    for index, query in enumerate(executed):
        prepared = lab.prepared("uniform-small", "TPCH", index, 0.1, use_gee=use_gee)
        for node in query.planned.root.walk():
            if node.kind is not OpKind.AGGREGATE or not node.group_keys:
                continue
            estimate = prepared.estimate.per_node[node.op_id]
            truth = query.true_selectivity(node.op_id)
            if truth > 0:
                errors.append(abs(estimate.mean - truth) / truth)
    return errors


def gee_ablation(ctx) -> Artifact:
    """GEE vs the optimizer fallback on aggregate-output selectivities.

    Section 3.2.2 leaves sampling-based aggregate estimation (GEE) as
    future work; relative errors against the truth on TPCH queries
    (uniform-small, SR = 0.1).
    """
    fallback = _aggregate_errors(ctx.small_lab, use_gee=False)
    gee = _aggregate_errors(ctx.small_lab, use_gee=True)
    rows = [
        ["optimizer fallback", np.mean(fallback), np.median(fallback)],
        ["GEE", np.mean(gee), np.median(gee)],
    ]
    return Artifact(
        "GEE ablation — aggregate-output relative errors (TPCH, SR = 0.1)",
        (Table("", ("estimator", "mean rel err", "median rel err"), rows),),
        {
            "fallback_mean_rel_err": float(np.mean(fallback)),
            "fallback_median_rel_err": float(np.median(fallback)),
            "gee_mean_rel_err": float(np.mean(gee)),
            "gee_median_rel_err": float(np.median(gee)),
            "aggregates": float(len(gee)),
            "gee_finite_frac": float(np.mean(
                [e >= 0 and np.isfinite(e) for e in gee]
            )),
        },
    )


def _estimator_study(lab, method: str) -> tuple[float, float]:
    executed = lab.executed_queries("skewed-small", "SELJOIN")
    predictor = lab.predictor("PC1")
    samples = lab.sample_db("skewed-small", 0.05)
    sigmas, errors, rel_mean_errors = [], [], []
    for index, query in enumerate(executed):
        if method == "sampling":
            prepared = lab.prepared("skewed-small", "SELJOIN", index, 0.05)
        else:
            prepared = predictor.prepare(query.planned, samples, method="histogram")
        prediction = predictor.predict_prepared(query.planned, prepared)
        actual = lab.actual_time("skewed-small", "SELJOIN", index, "PC1")
        sigmas.append(prediction.std)
        errors.append(abs(prediction.mean - actual))
        if actual > 0:
            rel_mean_errors.append(abs(prediction.mean - actual) / actual)
    return spearman(sigmas, errors), float(np.median(rel_mean_errors))


def histogram_vs_sampling(ctx) -> Artifact:
    """Sampling vs histogram selectivity uncertainty (Section 3.2).

    Both estimators must yield uncertainty that correlates with the
    actual errors (SELJOIN, skewed-small, PC1). Which predicts means
    better is workload-dependent: the TPC-H templates are dominated by
    foreign-key joins, where the 1/max(ndv) rule is exact even under
    skew, while sample joins go sparse at this scale.
    """
    sampling_rs, sampling_med = _estimator_study(ctx.small_lab, "sampling")
    histogram_rs, histogram_med = _estimator_study(ctx.small_lab, "histogram")
    rows = [
        ["sampling (Algorithm 1)", sampling_rs, sampling_med],
        ["histogram (catalog)", histogram_rs, histogram_med],
    ]
    return Artifact(
        "Sampling vs histogram uncertainty (SELJOIN, skewed-small, PC1)",
        (Table("", ("estimator", "rs(sigma, error)",
                    "median rel. mean error"), rows),),
        {
            "sampling_rs": float(sampling_rs),
            "histogram_rs": float(histogram_rs),
            "sampling_median_rel_err": float(sampling_med),
            "histogram_median_rel_err": float(histogram_med),
        },
    )


def lec(ctx) -> Artifact:
    """Least-expected-cost plan choice vs the point estimate (Sec. 6.5.1).

    On SELJOIN queries (uniform-small, PC1, SR = 0.05): LEC minimizes
    expected cost, so its choice never costs more in expectation.
    """
    lab = ctx.small_lab
    chooser = LeastExpectedCostChooser(lab.databases["uniform-small"], lab.units("PC1"))
    samples = lab.sample_db("uniform-small", 0.05)
    rows = []
    for sql in seljoin_workload(num_queries=8, seed=5):
        candidates = chooser.candidates(sql, samples)
        lec_best = min(candidates, key=lambda c: c.expected_cost)
        point_best = min(candidates, key=lambda c: c.point_cost)
        rows.append([
            len(candidates), lec_best.label, point_best.label,
            lec_best.expected_cost, point_best.expected_cost,
        ])
    lec_costs = np.array([row[3] for row in rows])
    point_costs = np.array([row[4] for row in rows])
    return Artifact(
        "LEC vs point-estimate plan choice (SELJOIN, PC1, SR = 0.05)",
        (Table("", ("candidates", "LEC choice", "point choice",
                    "E[cost] of LEC", "E[cost] of point"), rows),),
        {
            "queries": float(len(rows)),
            "agree_frac": float(np.mean([row[1] == row[2] for row in rows])),
            "candidates_mean": float(np.mean([row[0] for row in rows])),
            "lec_expected_cost_mean": float(lec_costs.mean()),
            "point_expected_cost_mean": float(point_costs.mean()),
            "lec_not_worse_frac": float(np.mean(lec_costs <= point_costs + 1e-12)),
        },
    )


def concurrency(ctx) -> Artifact:
    """Predictions under concurrency (Section 8 future work).

    Across multiprogramming levels (SELJOIN, uniform-small, PC1): load
    never speeds a query up, and interference adds uncertainty.
    """
    lab = ctx.small_lab
    executed = lab.executed_queries("uniform-small", "SELJOIN")
    samples = lab.sample_db("uniform-small", 0.05)
    predictor = ConcurrentPredictor(lab.units("PC1"))
    rows = []
    for index, query in enumerate(executed[:ctx.pick(quick=4, full=6)]):
        sweep = predictor.sweep(query.planned, samples, MPL_LEVELS)
        rows.append([f"Q{index}"] + [
            (sweep[mpl].mean, sweep[mpl].std) for mpl in MPL_LEVELS
        ])
    means = np.array([[mean for mean, _ in row[1:]] for row in rows])
    stds = np.array([[std for _, std in row[1:]] for row in rows])
    return Artifact(
        "Predictions under concurrency (SELJOIN, uniform-small, PC1)",
        (Table("mean (std) in seconds",
               ("query",) + tuple(f"MPL={mpl}" for mpl in MPL_LEVELS), rows),),
        {
            "monotone_mean_frac": float(np.mean([
                all(np.diff(row) >= 0) for row in means
            ])),
            "mean_slowdown_mpl8": float((means[:, -1] / means[:, 0]).mean()),
            "std_growth_mpl8": float((stds[:, -1] / stds[:, 0]).mean()),
            "std_grows_frac": float(np.mean(stds[:, -1] >= stds[:, 0])),
        },
    )


#: Every artifact, in the report's order (the paper's, then extensions).
ARTIFACTS = (
    calibration,
    table4_correlations,
    fig3_outliers,
    table5_dn,
    fig5_pr_curves,
    fig6_scatter_cases,
    table6_sel_error_corr,
    table7_sel_corr,
    table8_rel_errors,
    table9_large_error_corr,
    fig8_ablation,
    fig9_overhead,
    bounds,
    gee_ablation,
    histogram_vs_sampling,
    lec,
    concurrency,
)
