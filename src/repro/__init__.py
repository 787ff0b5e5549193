"""repro — a Python reproduction of Apache ShardingSphere (ICDE 2022).

A holistic and pluggable data-sharding platform: use a fleet of sharded
relational data sources like one database. Public entry points:

- :class:`repro.adaptors.ShardingDataSource` — JDBC-mode adaptor (in-process).
- :class:`repro.adaptors.ShardingProxyServer` — Proxy-mode adaptor (TCP).
- :mod:`repro.sharding` — sharding rules, algorithms, AutoTable.
- :mod:`repro.distsql` — DistSQL (RDL / RQL / RAL).

The paper's evaluation (Sysbench / TPC-C, systems under test) is ``benchmarks/paper``.
"""

__version__ = "0.1.0"

from . import exceptions

__all__ = ["exceptions", "__version__"]
