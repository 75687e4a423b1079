"""The per-query batch loop: the oracle for ``PredictionService.predict_batch``.

The service serves every batch through the cross-query SoA kernels
(docs/service.md "Batch kernels"). Their contract is that a batch
serves, bit for bit, what serving each query on its own serves. This
module states that contract as code: a batch is one
:meth:`~repro.service.PredictionService.predict_query` call per query,
with the batch path's failure isolation and counter updates. It is a
test helper, not part of the library.
"""

import time

from repro.core.predictor import Variant
from repro.errors import error_code
from repro.service.service import BatchPrediction, QueryFailure


def predict_batch_oracle(
    service,
    queries,
    variants=(Variant.ALL,),
    mpls=(1,),
    skip_failures=False,
):
    """``service.predict_batch`` as a loop of ``predict_query`` calls.

    With ``skip_failures=True`` a failing query becomes a
    :class:`~repro.service.QueryFailure` at its index and bumps
    ``queries_failed``; otherwise the first failure propagates — after
    the queries before it were already counted as served, which is
    where this loop and the batch path part (the batch path counts no
    query of an aborted batch). Intervals are left to be computed on
    demand, as :meth:`~repro.service.PredictionService.predict_query`
    serves them.
    """
    before = service.stats.snapshot()
    started = time.perf_counter()
    predictions = []
    failures = []
    for index, query in enumerate(queries):
        try:
            predictions.append(
                service.predict_query(query, variants=variants, mpls=mpls)
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
