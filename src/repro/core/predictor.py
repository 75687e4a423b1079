"""Algorithm 2: the uncertainty-aware execution time predictor.

Pipeline per query:

1. run the plan over the sample tables once, obtaining the selectivity
   distributions of every operator (Section 3.2, Algorithm 1);
2. fit the logical cost functions on a grid around the estimated
   selectivities (Section 4);
3. combine with the calibrated cost-unit distributions to obtain
   t_q ~ N(E[t_q], Var[t_q]) (Section 5, Algorithm 3).

The output is a distribution of *likely running times*: the
"self-awareness" of the point predictor, not the distribution of
repeated physical executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..caching import ByteBudgetLRU
from ..calibration.calibrator import CalibratedUnits
from ..costfuncs.fitting import DEFAULT_GRID_W, CostFunctionFitter, OperatorCostFunctions
from ..errors import PredictionError
from ..mathstats.normal import NormalDistribution
from ..optimizer.optimizer import PlannedQuery
from ..sampling.engine import SamplingEngine
from ..sampling.estimator import SamplingEstimate, SelectivityEstimator
from ..sampling.sample_db import SampleDatabase
from .variance import VarianceBreakdown, VarianceOptions, VectorizedAssembler

__all__ = ["Variant", "PreparedPrediction", "PredictionResult", "UncertaintyPredictor"]


class Variant(Enum):
    """The predictor variants compared in Section 6.3.3."""

    ALL = "All"
    NO_VAR_C = "NoVar[c]"
    NO_VAR_X = "NoVar[X]"
    NO_COV = "NoCov"

    @property
    def wire_name(self) -> str:
        """The lowercase name used on the wire and by the CLI."""
        return self.value.lower()

    @classmethod
    def from_name(cls, name: str) -> "Variant":
        """Resolve a case-insensitive wire/CLI name like ``"all"``/``"nocov"``."""
        key = name.strip().lower()
        for variant in cls:
            if variant.value.lower() == key:
                return variant
        known = ", ".join(sorted(variant.value.lower() for variant in cls))
        raise PredictionError(
            f"unknown predictor variant {name!r}; expected one of {known}"
        )


VARIANT_OPTIONS = {
    Variant.ALL: VarianceOptions(),
    Variant.NO_VAR_C: VarianceOptions(include_cost_unit_variance=False),
    Variant.NO_VAR_X: VarianceOptions(include_selectivity_variance=False),
    Variant.NO_COV: VarianceOptions(include_cross_covariances=False),
}


@dataclass
class PreparedPrediction:
    """The reusable per-query artifacts: sample estimates + fitted costs."""

    estimate: SamplingEstimate
    fitted: dict[int, OperatorCostFunctions]
    _assembler: VectorizedAssembler | None = field(
        default=None, repr=False, compare=False
    )
    _assembler_root: object = field(default=None, repr=False, compare=False)

    def assembler(self, planned) -> VectorizedAssembler:
        """The (lazily built, cached) vectorized Algorithm-3 assembler.

        Caching it here lets every consumer that shares a prepare pass —
        variant ablations, multiprogramming sweeps, the batch service —
        also share the extracted term structure and covariance kernels.
        The cache is keyed on the plan object: asking for a different
        plan's assembly rebuilds rather than silently reusing the first
        plan's ancestry.
        """
        if self._assembler is None or self._assembler_root is not planned.root:
            self._assembler = VectorizedAssembler(planned, self.estimate, self.fitted)
            self._assembler_root = planned.root
        return self._assembler


@dataclass
class PredictionResult:
    """A predicted distribution of likely running times."""

    distribution: NormalDistribution
    breakdown: VarianceBreakdown
    prepared: PreparedPrediction
    variant: Variant
    #: Optional intervals precomputed by the SoA batch kernel, keyed by
    #: confidence level and already clamped. The kernel's vectorized
    #: interval math is bitwise-locked to the scalar path, so a lookup
    #: here is indistinguishable from computing the interval on demand.
    _intervals: dict[float, tuple[float, float]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def mean(self) -> float:
        return self.distribution.mean

    @property
    def std(self) -> float:
        return self.distribution.std

    def confidence_interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """The central interval, clamped to nonnegative running times.

        Both ends are clamped: a high-variance prediction whose Gaussian
        interval lies entirely below zero degenerates to (0.0, 0.0)
        rather than an inverted (0.0, negative) pair.
        """
        if self._intervals is not None:
            cached = self._intervals.get(confidence)
            if cached is not None:
                return cached
        low, high = self.distribution.interval(confidence)
        low, high = max(low, 0.0), max(high, 0.0)
        assert low <= high, (low, high)
        return low, high

    def prob_within(self, low: float, high: float) -> float:
        return self.distribution.prob_within(low, high)


class UncertaintyPredictor:
    """The paper's predictor: point estimate + uncertainty, low overhead."""

    def __init__(self, units: CalibratedUnits, grid_w: int = DEFAULT_GRID_W):
        self._units = units
        self._grid_w = grid_w

    @property
    def units(self) -> CalibratedUnits:
        return self._units

    # ------------------------------------------------------------------
    def prepare(
        self,
        planned: PlannedQuery,
        sample_db: SampleDatabase | None,
        use_gee: bool = False,
        method: str = "sampling",
        engine: SamplingEngine | None = None,
        fit_memo: ByteBudgetLRU | None = None,
    ) -> PreparedPrediction:
        """Run selectivity estimation + fitting once; reusable across variants.

        ``method`` selects the selectivity estimator: "sampling" (the
        paper's Algorithm 1; requires ``sample_db``) or "histogram" (the
        catalog-statistics alternative the paper lists as future work).
        An optional shared :class:`~repro.sampling.engine.SamplingEngine`
        memoizes sub-plan sampling work across calls; it only applies to
        the "sampling" method. An optional ``fit_memo`` memoizes exact
        NNLS solutions of the fitting step across calls
        (:class:`~repro.costfuncs.fitting.CostFunctionFitter`).
        """
        if method == "sampling":
            if sample_db is None:
                raise PredictionError("sampling estimation requires a sample_db")
            estimate = SelectivityEstimator(
                sample_db, planned, use_gee=use_gee, engine=engine
            ).estimate()
        elif method == "histogram":
            from ..sampling.histogram_estimator import HistogramSelectivityEstimator

            estimate = HistogramSelectivityEstimator(planned).estimate()
        else:
            raise PredictionError(f"unknown estimation method: {method!r}")
        fitted = CostFunctionFitter(
            planned, estimate, grid_w=self._grid_w, memo=fit_memo
        ).fit_all()
        return PreparedPrediction(estimate=estimate, fitted=fitted)

    def predict_prepared(
        self,
        planned: PlannedQuery,
        prepared: PreparedPrediction,
        variant: Variant = Variant.ALL,
    ) -> PredictionResult:
        """Assemble the distribution from prepared artifacts."""
        breakdown = prepared.assembler(planned).assemble(
            self._units, VARIANT_OPTIONS[variant]
        )
        return PredictionResult(
            distribution=NormalDistribution(breakdown.mean, breakdown.variance),
            breakdown=breakdown,
            prepared=prepared,
            variant=variant,
        )

    def predict(
        self,
        planned: PlannedQuery,
        sample_db: SampleDatabase | None,
        variant: Variant = Variant.ALL,
        use_gee: bool = False,
        method: str = "sampling",
    ) -> PredictionResult:
        """End-to-end prediction for one planned query."""
        prepared = self.prepare(planned, sample_db, use_gee=use_gee, method=method)
        return self.predict_prepared(planned, prepared, variant)
