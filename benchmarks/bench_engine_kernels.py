"""Engine micro-benchmarks: the substrate's hot kernels.

Not a paper artifact, but keeps the substrate honest: join, aggregation
and full-plan execution throughput on the small TPC-H database. Each
timed call's result is checked too (hard-floored flags and counts): the
orders-lineitem equijoin pairs every lineitem row, the COUNT(*) plan
answers one row, and the five-table plan has at least 9 operators.
"""

from repro.benchreport import Metric, register
from repro.executor import Executor, equijoin_pairs
from repro.optimizer import Optimizer


@register("engine_kernels", tags=("substrate", "latency"))
def scenario(ctx):
    """Hot-kernel latencies: equijoin, full-plan execution, planning."""
    database = ctx.small_lab.databases["uniform-small"]
    repetitions = ctx.pick(quick=3, full=5)
    orders = database.table("orders").column("o_orderkey")
    lineitem = database.table("lineitem").column("l_orderkey")
    join_seconds, (left_idx, _) = ctx.best_of(
        lambda: equijoin_pairs([orders], [lineitem]), repetitions
    )
    optimizer = Optimizer(database)
    exec_sql = (
        "SELECT COUNT(*) FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "AND o_totalprice > 150000"
    )
    planned = optimizer.plan_sql(exec_sql)
    executor = Executor(database)
    exec_seconds, executed = ctx.best_of(
        lambda: executor.execute(planned), repetitions
    )
    plan_sql = (
        "SELECT COUNT(*) FROM customer, orders, lineitem, supplier, nation "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "AND l_suppkey = s_suppkey AND s_nationkey = n_nationkey"
    )
    plan_seconds, plan = ctx.best_of(
        lambda: optimizer.plan_sql(plan_sql), repetitions
    )
    return [
        Metric("equijoin_seconds", join_seconds, kind="timing", unit="s"),
        Metric("execute_seconds", exec_seconds, kind="timing", unit="s"),
        Metric("plan_seconds", plan_seconds, kind="timing", unit="s"),
        Metric("join_pairs", float(len(left_idx))),
        Metric(
            "join_pairs_complete",
            1.0 if len(left_idx) == database.table("lineitem").num_rows else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric(
            "execute_one_row",
            1.0 if executed.num_rows == 1 else 0.0,
            kind="ratio",
            floor=1.0,
        ),
        Metric("plan_operators", float(len(list(plan.root.walk()))), floor=9.0),
    ]
