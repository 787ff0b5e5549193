"""DistSQL: configure ShardingSphere in the way of using a database."""

from .executor import DistSQLResult, execute_distsql
from .parser import DISTSQL_VERBS, DistSQLStatement, is_distsql, parse_distsql

__all__ = [
    "DISTSQL_VERBS",
    "is_distsql",
    "parse_distsql",
    "execute_distsql",
    "DistSQLStatement",
    "DistSQLResult",
]
