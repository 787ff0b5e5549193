"""Vertical sharding helpers (Fig. 3 of the paper).

The paper distinguishes vertical from horizontal sharding and focuses on
horizontal; vertical *data source* sharding — assigning whole tables to
different data sources by business logic — falls out of the rule model
naturally: each table gets a single-node rule pinning it to its source.

Vertical *table* sharding (splitting a wide table's columns into several
narrow tables) is a schema-design operation; :func:`split_table_vertically`
performs the split on a live data source, copying column groups into the
new narrow tables (e.g. ``t_user`` -> ``t_user_v0`` + ``t_user_v1`` in the
paper's Fig. 3(b)).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..exceptions import ShardingConfigError
from ..storage import Column, DataSource, TableSchema
from .rule import DataNode, ShardingRule, TableRule


def make_vertical_sharding(
    assignments: Mapping[str, str],
    default_data_source: str | None = None,
) -> ShardingRule:
    """Vertical data-source sharding: logic table -> owning data source.

    Each table keeps its schema and name but lives in exactly one source
    (the paper's upper-right quadrant of Fig. 3(c)).
    """
    if not assignments:
        raise ShardingConfigError("vertical sharding needs at least one assignment")
    rules = [
        TableRule(table, [DataNode(source, table)])
        for table, source in assignments.items()
    ]
    return ShardingRule(
        rules,
        default_data_source=default_data_source or next(iter(assignments.values())),
    )


def split_table_vertically(
    source: DataSource,
    table: str,
    column_groups: Sequence[Sequence[str]],
    key_column: str,
    drop_original: bool = False,
    suffix: str = "_v",
) -> list[str]:
    """Split ``table`` into narrow tables by column groups (Fig. 3(b)).

    Every new table carries the key column so rows stay joinable. Returns
    the names of the created tables (``{table}{suffix}{i}``).
    """
    database = source.database
    original = database.table(table)
    schema = original.schema
    key = schema.column(key_column)

    created: list[str] = []
    with database.write_lock():
        split_schemas: list[TableSchema] = []
        for i, group in enumerate(column_groups):
            columns: list[Column] = [
                Column(key.name, key.type, not_null=True)
            ]
            for name in group:
                column = schema.column(name)
                if column.name.lower() == key.name.lower():
                    continue
                columns.append(
                    Column(column.name, column.type, column.not_null,
                           column.auto_increment, column.default, column.unique)
                )
            new_name = f"{table}{suffix}{i}"
            split_schemas.append(
                TableSchema(new_name, columns, primary_key=[key.name])
            )
        covered = {key.name.lower()}
        for group in column_groups:
            covered.update(c.lower() for c in group)
        missing = [c.name for c in schema.columns if c.name.lower() not in covered]
        if missing:
            raise ShardingConfigError(
                f"column groups do not cover columns {missing} of {table!r}"
            )

        tables = [database.create_table(s) for s in split_schemas]
        created = [t.schema.name for t in tables]
        inserts = [(target.schema.column_names, target.inserter(target.schema.column_names))
                   for target in tables]
        for _, row in original.scan():
            for names, insert in inserts:
                insert([[row[name] for name in names]], [])
        if drop_original:
            database.drop_table(table)
    return created
