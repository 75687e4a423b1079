"""Algorithm 3: assembling E[t_q] and Var[t_q].

With fitted cost functions f_kc (polynomials in the selectivity
variables) and calibrated unit distributions c ~ N(mu_c, sigma_c^2),

    t_q = sum_c c * g_c,   g_c = sum_k f_kc.

Since the units are independent of each other and of the selectivities:

    E[t_q]   = sum_c mu_c E[g_c]
    Var[t_q] = sum_c [ (mu_c^2 + sigma_c^2) Var[g_c] + sigma_c^2 E[g_c]^2 ]
             + sum_{c != c'} mu_c mu_c' Cov(g_c, g_c')

Var[g_c] and Cov(g_c, g_c') expand over pairs of polynomial terms:
exact normal-moment computation when the variables involved are
independent or identical, covariance upper bounds (Section 5.3.2)
when they belong to nested operators.

:class:`VectorizedAssembler` groups terms by (cost unit, monomial)
into a dense coefficient matrix S once per prepared query; per variant
the distinct-monomial covariance kernel K is evaluated only on pairs
that can actually covary (a shared positive-variance variable, or two
positive-variance variables of nested operators — every other pair is
exactly zero for independent normals) and the term-pair double sum
collapses to S K S^T. The original pure-Python double loop over all
term pairs is the executable specification in ``tests/test_service.py``,
which cross-checks the two within float tolerance.

Every sum of products in the production path is elementwise products
added left to right (:func:`sum_in_order`), never a BLAS call, so a
served number depends on the program and its inputs, not on the BLAS
kernel or the CPU it runs on. :func:`fold_unit_moments` is the one
unit-space step: a single query calls it on one cell, the batch kernels
(:mod:`repro.service.kernels`) on every cell of a batch at once, and
its cells are bit for bit the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..calibration.calibrator import CalibratedUnits
from ..mathstats.moments import monomial_cov, monomial_mean, monomial_var
from ..optimizer.cost_model import COST_UNIT_NAMES
from ..sampling.estimator import NodeSelectivity, SamplingEstimate
from .covariance import PlanAncestry, cov_power_bound

__all__ = [
    "VarianceBreakdown",
    "VarianceOptions",
    "VectorizedAssembler",
    "assemble_distribution_parameters",
    "fold_unit_moments",
    "sum_in_order",
]


@dataclass(frozen=True)
class VarianceOptions:
    """Which uncertainty sources to include (the Section 6.3.3 ablations)."""

    include_cost_unit_variance: bool = True
    include_selectivity_variance: bool = True
    include_cross_covariances: bool = True


@dataclass
class VarianceBreakdown:
    """Where the predicted variance came from (diagnostics)."""

    mean: float = 0.0
    variance: float = 0.0
    exact_selectivity_term: float = 0.0
    bounded_covariance_term: float = 0.0
    cost_unit_term: float = 0.0
    per_unit_mean: dict[str, float] = field(default_factory=dict)


def _canonical(monomial: dict[int, int]) -> tuple:
    return tuple(sorted(monomial.items()))


#: Up to this many sums, :func:`sum_in_order` takes one
#: ``np.add.accumulate`` call; beyond, one whole-array add per term.
_ACCUMULATE_ROWS = 128


def sum_in_order(terms: np.ndarray) -> np.ndarray:
    """``terms`` summed over its last axis strictly left to right.

    ``((t[0] + t[1]) + t[2]) + ...``, so each element's bits depend only
    on its own terms and their order, not on the array's shape or
    layout, numpy's pairwise summation, or a BLAS kernel. An empty axis
    sums to zeros. Few sums take ``np.add.accumulate``, which is
    sequential by definition (``r[k] = r[k-1] + t[k]``) and costs one
    call; many take one whole-array add per term, which is faster when
    each add covers many sums. Both give the same bits.
    """
    count = terms.shape[-1]
    if count == 0:
        return np.zeros(terms.shape[:-1])
    if terms.size <= _ACCUMULATE_ROWS * count:
        return np.add.accumulate(terms, axis=-1)[..., -1]
    total = terms[..., 0]
    for k in range(1, count):
        total = total + terms[..., k]
    return total


def fold_unit_moments(mu, sigma2, g_mean, covariances) -> tuple:
    """Fold cost-unit distributions over unit-space moments (Algorithm 3).

    ``mu`` and ``sigma2`` are the units' means and variances, ``g_mean``
    is E[g_c] and ``covariances`` stacks the exact and the bounded part
    of Cov(g_c, g_c') (:meth:`VectorizedAssembler.unit_moments`). Their
    trailing axes run over ``COST_UNIT_NAMES`` (``(..., U)`` and
    ``(..., 2, U, U)``); any leading axes broadcast, so one call serves
    one cell or a whole batch. Returns ``(mean, variance, exact_part,
    bounded_part, unit_part, per_unit_mean)``, where, for either
    covariance part,

        mean     = sum_c mu_c E[g_c]
        unit     = sum_c sigma2_c E[g_c]^2
        part     = sum_c (mu_c (sum_c' Cov(g_c, g_c') mu_c')
                          + sigma2_c Cov(g_c, g_c))
        variance = max((exact + bounded) + unit, 0.0)

    Each sum runs left to right over the units (:func:`sum_in_order`)
    and every other step is elementwise, so a cell's bits do not depend
    on how many cells share the call.
    """
    per_unit_mean = mu * g_mean
    mean = sum_in_order(per_unit_mean)
    unit_part = sum_in_order(sigma2 * (g_mean * g_mean))
    mu_row = mu[..., None, :]
    weighted = sum_in_order(covariances * mu_row[..., None, :])
    parts = sum_in_order(
        mu_row * weighted
        + sigma2[..., None, :] * np.diagonal(covariances, axis1=-2, axis2=-1)
    )
    exact_part = parts[..., 0]
    bounded_part = parts[..., 1]
    raw = (exact_part + bounded_part) + unit_part
    # max(x, 0.0) in array form: np.where keeps -0.0 and NaN as python's
    # max does, np.maximum would not.
    variance = np.where(raw < 0.0, 0.0, raw)
    return mean, variance, exact_part, bounded_part, unit_part, per_unit_mean


def _selectivity_distributions(
    estimate: SamplingEstimate, options: VarianceOptions
) -> tuple[dict[int, tuple[float, float]], dict[int, NodeSelectivity]]:
    """(mean, variance) per defining variable, honoring the NoVar[X] ablation."""
    distributions: dict[int, tuple[float, float]] = {}
    selectivities: dict[int, NodeSelectivity] = {}
    for op_id, node_sel in estimate.per_node.items():
        if node_sel.source == "alias":
            continue
        variance = node_sel.variance if options.include_selectivity_variance else 0.0
        distributions[op_id] = (node_sel.mean, variance)
        selectivities[op_id] = node_sel
    return distributions, selectivities


class VectorizedAssembler:
    """Reusable, vectorized Algorithm 3 for one prepared query.

    Construction extracts the polynomial structure (the expensive,
    options-independent part); :meth:`assemble` then evaluates the
    distribution parameters for any (units, options) pair. The
    unit-space moments are cached per selectivity class, so fanning one
    prepared query out across the four Variants and many
    interference-loaded unit sets (as the batch service does) costs one
    :func:`fold_unit_moments` each.
    """

    def __init__(self, planned, estimate: SamplingEstimate, fitted: dict):
        self._ancestry = PlanAncestry.from_plan(planned.root)
        self._estimate = estimate

        # Group terms: S[u, m] = sum of coefficients of unit u's terms with
        # distinct monomial m. The double sum over term pairs then factors
        # through the much smaller distinct-monomial space.
        index: dict[tuple, int] = {}
        monomials: list[tuple] = []
        entries: list[tuple[int, int, float]] = []
        unit_row = {unit: row for row, unit in enumerate(COST_UNIT_NAMES)}
        for op_functions in fitted.values():
            for unit, function in op_functions.functions.items():
                row = unit_row[unit]
                for coefficient, monomial in function.monomials():
                    if coefficient == 0.0:
                        continue
                    key = _canonical(monomial)
                    column = index.setdefault(key, len(monomials))
                    if column == len(monomials):
                        monomials.append(key)
                    entries.append((row, column, coefficient))
        self._monomials = monomials
        self._coefficients = np.zeros((len(COST_UNIT_NAMES), len(monomials)))
        for row, column, coefficient in entries:
            self._coefficients[row, column] += coefficient
        self._unit_moments: dict[tuple[bool, bool], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _kernel(self, options: VarianceOptions) -> tuple[np.ndarray, np.ndarray]:
        """(monomial means, kernels) for one ablation.

        ``kernels`` stacks the exact then the bounded covariance kernel
        of the distinct monomials: shape ``(2, M, M)``, symmetric in
        its last two axes.
        """
        distributions, selectivities = _selectivity_distributions(
            self._estimate, options
        )
        monomials = self._monomials
        as_dicts = [dict(monomial) for monomial in monomials]
        size = len(monomials)
        means = np.empty(size)
        active: list[tuple[int, ...]] = []
        for i, monomial in enumerate(as_dicts):
            means[i] = monomial_mean(monomial, distributions)
            active.append(
                tuple(var for var in monomial if distributions[var][1] > 0.0)
            )

        related = self._ancestry.related
        kernels = np.zeros((2, size, size))
        exact_kernel, bound_kernel = kernels
        for i in range(size):
            active_i = active[i]
            if not active_i:
                continue
            set_i = set(active_i)
            for j in range(i, size):
                active_j = active[j]
                if not active_j:
                    continue
                if set_i.isdisjoint(active_j) and not any(
                    related(u, v) for u in active_i for v in active_j if u != v
                ):
                    # All distinct variables independent and none shared with
                    # positive variance: the covariance is exactly zero.
                    continue
                first, second = (
                    (monomials[i], monomials[j])
                    if monomials[i] <= monomials[j]
                    else (monomials[j], monomials[i])
                )
                exact, bounded = _term_covariance(
                    dict(first),
                    dict(second),
                    distributions,
                    selectivities,
                    self._ancestry,
                    options,
                )
                exact_kernel[i, j] = exact_kernel[j, i] = exact
                bound_kernel[i, j] = bound_kernel[j, i] = bounded
        return means, kernels

    # ------------------------------------------------------------------
    def unit_moments(
        self, options: VarianceOptions = VarianceOptions()
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(E[g_c], Cov(g_c, g_c'))`` in unit space.

        The monomial-space kernels contracted down to the fixed
        ``len(COST_UNIT_NAMES)``-dimensional unit space: E[g_c] has
        shape ``(U,)``, and the covariances ``(2, U, U)``, the exact
        part then the bounded part. These are the only plan-dependent
        inputs :func:`fold_unit_moments` needs, and they do not depend
        on the unit distributions. Nor do they depend on
        ``include_cost_unit_variance``, so they are computed and cached
        once per selectivity class: All and NoVar[c] share one pair.

        With S the (U, M) coefficient matrix and K a kernel,
        ``E[g_c] = sum_m S[c, m] E[m]`` and
        ``Cov = sum_n (sum_m S[c, m] K[m, n]) S[c', n]``, each sum left
        to right over the monomials (:func:`sum_in_order`).
        """
        key = (
            options.include_selectivity_variance,
            options.include_cross_covariances,
        )
        cached = self._unit_moments.get(key)
        if cached is not None:
            return cached
        means, kernels = self._kernel(options)
        coefficients = self._coefficients
        # [k, c, n, m] = S[c, m] * K_k[m, n], summed over m, then
        # [k, c, c', n] = (S K_k)[c, n] * S[c', n], summed over n.
        left = sum_in_order(
            coefficients[None, :, None, :] * kernels.transpose(0, 2, 1)[:, None]
        )
        # Compact copies: the sums are views into scratch arrays M times
        # their size, and the cache lives as long as the prepared plan.
        cached = (
            np.ascontiguousarray(sum_in_order(coefficients * means)),
            np.ascontiguousarray(sum_in_order(left[:, :, None, :] * coefficients)),
        )
        self._unit_moments[key] = cached
        return cached

    # ------------------------------------------------------------------
    def assemble(
        self,
        units: CalibratedUnits,
        options: VarianceOptions = VarianceOptions(),
    ) -> VarianceBreakdown:
        """Evaluate (E[t_q], Var[t_q]) for one set of unit distributions."""
        g_mean, covariances = self.unit_moments(options)
        mu = np.array([units.mean(name) for name in COST_UNIT_NAMES])
        if options.include_cost_unit_variance:
            sigma2 = np.array([units.variance(name) for name in COST_UNIT_NAMES])
        else:
            sigma2 = np.zeros(len(COST_UNIT_NAMES))
        mean, variance, exact_part, bounded_part, unit_part, per_unit_mean = (
            fold_unit_moments(mu, sigma2, g_mean, covariances)
        )
        return VarianceBreakdown(
            mean=float(mean),
            variance=float(variance),
            exact_selectivity_term=float(exact_part),
            bounded_covariance_term=float(bounded_part),
            cost_unit_term=float(unit_part),
            per_unit_mean=dict(zip(COST_UNIT_NAMES, per_unit_mean.tolist())),
        )


def assemble_distribution_parameters(
    planned,
    estimate: SamplingEstimate,
    fitted: dict,
    units: CalibratedUnits,
    options: VarianceOptions = VarianceOptions(),
) -> VarianceBreakdown:
    """Compute (E[t_q], Var[t_q]) per the scheme above (vectorized path)."""
    return VectorizedAssembler(planned, estimate, fitted).assemble(units, options)


def _term_covariance(
    m1: dict[int, int],
    m2: dict[int, int],
    distributions: dict[int, tuple[float, float]],
    selectivities: dict[int, NodeSelectivity],
    ancestry: PlanAncestry,
    options: VarianceOptions,
) -> tuple[float, float]:
    """(exact part, bounded part) of Cov(M1, M2).

    Exact when all distinct variables across the monomials are
    independent (shared identical variables are fine). Correlated
    distinct variables — nested operators — are routed to the
    Section 5.3.2 bounds; with ``include_cross_covariances`` off they
    are treated as independent (the NoCov ablation).
    """
    if not m1 or not m2:
        return 0.0, 0.0

    correlated_pairs = [
        (u, v)
        for u in m1
        for v in m2
        if u != v
        and ancestry.related(u, v)
        and distributions[u][1] > 0.0
        and distributions[v][1] > 0.0
    ]
    if not correlated_pairs or not options.include_cross_covariances:
        return monomial_cov(m1, m2, distributions), 0.0

    shared_vars = set(m1) & set(m2)
    if len(correlated_pairs) == 1 and not shared_vars:
        (u, v) = correlated_pairs[0]
        # Cov(A * U^p, B * V^q) = E[A] E[B] Cov(U^p, V^q) when the residual
        # factors A, B are independent of U, V, and each other.
        rest1 = {var: exp for var, exp in m1.items() if var != u}
        rest2 = {var: exp for var, exp in m2.items() if var != v}
        rest_vars = set(rest1) | set(rest2)
        clean = all(
            not ancestry.related(a, b) or distributions[a][1] == 0.0
            or distributions[b][1] == 0.0
            for a in rest_vars
            for b in (set(m1) | set(m2))
            if a != b
        )
        if clean:
            factor = monomial_mean(rest1, distributions) * monomial_mean(
                rest2, distributions
            )
            bound = cov_power_bound(
                selectivities[u], m1[u], selectivities[v], m2[v]
            )
            return 0.0, factor * bound

    # Generic fallback: Cauchy-Schwarz over the full monomials. Variances
    # of single monomials are exact (within-monomial variables are
    # independent by the structure of the C1..C6 families).
    bound = math.sqrt(
        monomial_var(m1, distributions) * monomial_var(m2, distributions)
    )
    return 0.0, bound
