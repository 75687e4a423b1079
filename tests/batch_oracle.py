"""The scalar per-query loop: the oracle for every kernel-served number.

The service serves every prediction through the cross-query SoA kernels
(docs/service.md "Batch kernels"): a batch directly, a single query as
a batch of one. Their contract is that they serve, bit for bit, what
assembling each query on its own serves. This module states that
contract as code: :func:`predict_query_oracle` assembles one query once
per (variant, mpl) through the scalar
:meth:`~repro.core.predictor.UncertaintyPredictor.predict_prepared`,
and :func:`predict_batch_oracle` is one such call per query, with the
batch path's failure isolation and counter updates. It is a test
helper, not part of the library.
"""

import time

from repro.core.predictor import PredictionResult, Variant
from repro.errors import PredictionError, error_code
from repro.service.service import BatchPrediction, QueryFailure, QueryPrediction


def predict_query_oracle(
    service,
    query,
    variants=(Variant.ALL,),
    mpls=(1,),
):
    """One query, fanned out across variants and multiprogramming levels.

    Plans and prepares through ``service`` (memoized plan, cached
    prepare), then assembles every (variant, mpl) with the scalar
    per-query path; intervals are left to be computed on demand.
    Repeated variants and mpls land on the same result key, so the
    answer holds one result per distinct cell.
    """
    if not variants or not mpls:
        raise PredictionError("need at least one variant and one mpl")
    planned = service.plan(query)
    prepared, was_cached = service.prepare(planned)
    results: dict[tuple[Variant, int], PredictionResult] = {}
    for mpl in mpls:
        predictor = service._concurrent.predictor_at(mpl)
        for variant in variants:
            results[(variant, mpl)] = predictor.predict_prepared(
                planned, prepared, variant
            )
    service._count(assemblies=len(results), queries_served=1)
    return QueryPrediction(
        sql=query if isinstance(query, str) else None,
        planned=planned,
        results=results,
        prepare_was_cached=was_cached,
    )


def predict_batch_oracle(
    service,
    queries,
    variants=(Variant.ALL,),
    mpls=(1,),
    skip_failures=False,
):
    """``service.predict_batch`` as a loop of :func:`predict_query_oracle`.

    With ``skip_failures=True`` a failing query becomes a
    :class:`~repro.service.QueryFailure` at its index and bumps
    ``queries_failed``; otherwise the first failure propagates — after
    the queries before it were already counted as served, which is
    where this loop and the batch path part (the batch path counts no
    query of an aborted batch). Intervals are left to be computed on
    demand.
    """
    before = service.stats.snapshot()
    started = time.perf_counter()
    predictions = []
    failures = []
    for index, query in enumerate(queries):
        try:
            predictions.append(
                predict_query_oracle(service, query, variants=variants, mpls=mpls)
            )
        except Exception as error:  # noqa: BLE001 — per-query isolation
            if not skip_failures:
                raise
            service.stats.queries_failed += 1
            failures.append(
                QueryFailure(
                    index=index,
                    sql=query if isinstance(query, str) else None,
                    error=f"{type(error).__name__}: {error}",
                    code=error_code(error),
                )
            )
    return BatchPrediction(
        predictions=predictions,
        elapsed_seconds=time.perf_counter() - started,
        stats=service.stats.snapshot().since(before),
        failures=failures,
    )
