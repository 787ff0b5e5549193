"""The paper's evaluation apparatus (Section VIII), kept apart from the product.

Sysbench and TPC-C drivers, the measurement runner, the proxy session
bench, and the systems under test (SSJ, SSP and the Vitess/Citus,
TiDB/CockroachDB, Aurora and single-node stand-ins) over the grid topology
of ``topology``. Import the modules directly; run the CLI with
``PYTHONPATH=benchmarks python -m paper``.
"""
