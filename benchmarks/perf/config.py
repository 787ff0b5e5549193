"""Every parameter of the benchmark, written out.

Nothing here is read from a default in ``src/``: a changed default in the
program cannot silently change the load. Values that mirror a program
constant (the ``BENCH_LATENCY`` numbers, pool sizes) are repeated as
literals on purpose.
"""

from __future__ import annotations

# -- data and topology -------------------------------------------------------

TABLE_ROWS = 20_000
NUM_SOURCES = 4
TABLES_PER_SOURCE = 4  # 16 data nodes, 1,250 rows each, range layout on id
LOAD_BATCH_ROWS = 500
C_LENGTH = 119
PAD_LENGTH = 59

CREATE_TABLE = (
    "CREATE TABLE sbtest ("
    "id INT NOT NULL, "
    "k INT NOT NULL DEFAULT 0, "
    "c CHAR(120) NOT NULL DEFAULT '', "
    "pad CHAR(60) NOT NULL DEFAULT '', "
    "PRIMARY KEY (id))"
)
CREATE_INDEX = "CREATE INDEX idx_sbtest_k ON sbtest (k)"

# -- the simulated storage cost (the BENCH_LATENCY profile, spelled out) ------

LATENCY = dict(
    base=30e-6,
    index_io=4e-6,
    row_cost=0.6e-6,
    write_io=2e-3,
    commit_io=2e-3,
    buffer_pool_rows=30_000,
    disk_penalty=3.0,
    scale=1.0,
)

# -- the system ----------------------------------------------------------------

POOL_SIZE = 128  # connections per data source
IO_CHANNELS = 4  # statements paying simulated I/O at once per data source
WORKER_THREADS = 32  # engine fan-out pool
PROXY_WORKERS = 4  # 2 x nproc on the 2-vCPU box, fixed so nproc cannot move it
PROXY_MAX_QUEUE = 1024

#: DistSQL variables, all set explicitly. The result cache is off: with it
#: on, ``point_hot`` would time one dict lookup.
VARIABLES = {
    "transaction_type": "LOCAL",
    "max_connections_per_query": 10,
    "tracing": "OFF",
    "plan_cache": "ON",
    "workload_analytics": "ON",
    "result_cache": "OFF",
}

# -- run shape -------------------------------------------------------------------

RUN_SECONDS = 28  # measured time of a plain run; ``run_seconds`` in BENCHMARK.json
ROUNDS = 5  # of RUN_SECONDS / ROUNDS each; every timing metric is the median of the rounds
WARMUP_SECONDS = 2.0
WARMUP_MIN_STATEMENTS = 500

#: clients per workload in the plain (end-to-end) run; at most nproc = 2.
#: ``proxy_mixed`` was to have 2: on the one CPU the two closed loops queue
#: behind each other, a 16% slower host then reads as a 30% higher p50, and
#: the quartile spread of p50 between runs of unchanged code was 30% (README.md,
#: *Workloads*); so contention between proxy sessions is not covered.
#: ``txn_rw`` keeps 2: it sleeps most of the time.
CLIENTS = {"point_hot": 1, "adhoc_fanout": 1, "txn_rw": 2, "proxy_mixed": 1}

#: fixed op counts of the one-client traced / counted passes
PASS_WARMUP_OPS = {"point_hot": 500, "adhoc_fanout": 200, "txn_rw": 30, "proxy_mixed": 500}
PASS_OPS = {"point_hot": 2000, "adhoc_fanout": 1000, "txn_rw": 300, "proxy_mixed": 1000}

# -- the sysbench oltp_read_write transaction ---------------------------------------

TXN_POINT_SELECTS = 10
TXN_RANGE_SIZE = 100
PROXY_RANGE_SIZE = 20

# -- host check --------------------------------------------------------------------

#: median of ``host.kernel_ms`` over the recorded calibration (CALIBRATION.md);
#: a run whose own median is more than 15% above it is printed as host_slow
HOST_KERNEL_CALIBRATION_MS = 25.6
HOST_SLOW_FACTOR = 1.15

WORKLOADS = ("point_hot", "adhoc_fanout", "txn_rw", "proxy_mixed")
