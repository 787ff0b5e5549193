"""Unit tests for the storage type system and schema normalization."""

import pytest

from repro.exceptions import ColumnNotFoundError, TypeCheckError
from repro.sql import ast, parse
from repro.storage import Column, Table, TableSchema, make_type


class TestColumnTypes:
    def test_int_accepts_int(self):
        assert make_type("INT").coerce(5) == 5

    def test_int_accepts_integral_float(self):
        assert make_type("INT").coerce(5.0) == 5

    def test_int_accepts_numeric_string(self):
        assert make_type("BIGINT").coerce("17") == 17

    def test_int_rejects_text(self):
        with pytest.raises(TypeCheckError):
            make_type("INT").coerce("abc")

    def test_int_range_enforced(self):
        with pytest.raises(TypeCheckError):
            make_type("SMALLINT").coerce(2**20)
        with pytest.raises(TypeCheckError):
            make_type("INT").coerce(2**40)
        assert make_type("BIGINT").coerce(2**40) == 2**40

    def test_float_coercions(self):
        assert make_type("DOUBLE").coerce(1) == 1.0
        assert make_type("FLOAT").coerce("2.5") == 2.5
        assert isinstance(make_type("DECIMAL").coerce(3), float)

    def test_varchar_length_enforced(self):
        t = make_type("VARCHAR", 3)
        assert t.coerce("abc") == "abc"
        with pytest.raises(TypeCheckError):
            t.coerce("abcd")

    def test_varchar_accepts_numbers(self):
        assert make_type("VARCHAR", 10).coerce(42) == "42"

    def test_boolean(self):
        t = make_type("BOOLEAN")
        assert t.coerce(True) is True
        assert t.coerce(0) is False
        with pytest.raises(TypeCheckError):
            t.coerce("yes")

    def test_timestamp_from_iso(self):
        value = make_type("TIMESTAMP").coerce("2021-11-10 12:00:00")
        assert value.year == 2021

    def test_timestamp_rejects_garbage(self):
        with pytest.raises(TypeCheckError):
            make_type("TIMESTAMP").coerce("not a date")

    def test_null_passes_all_types(self):
        for name in ("INT", "VARCHAR", "BOOLEAN", "TIMESTAMP"):
            assert make_type(name).coerce(None) is None

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeCheckError):
            make_type("GEOMETRY")

    def test_str_rendering(self):
        assert str(make_type("VARCHAR", 12)) == "VARCHAR(12)"
        assert str(make_type("INT")) == "INT"

    @pytest.mark.parametrize("name, length", [
        ("INT", None), ("SMALLINT", None), ("BIGINT", None), ("VARCHAR", 3),
        ("TEXT", None), ("FLOAT", None), ("BOOLEAN", None), ("TIMESTAMP", None)])
    def test_the_coercer_answers_as_coerce_does(self, name, length):
        column_type = make_type(name, length)
        coercer = column_type.coercer()
        for value in (None, 0, 7, -40000, 2**31, 2**70, True, 2.0, 2.5, "12", "abcd", "ab",
                      "x", b"raw"):
            try:
                expected = ("value", column_type.coerce(value))
            except Exception as exc:
                expected = (type(exc), str(exc))
            try:
                got = ("value", coercer(value))
            except Exception as exc:
                got = (type(exc), str(exc))
            assert got == expected and type(got[1]) is type(expected[1]), (value, got)


def make_schema():
    return TableSchema(
        name="t",
        columns=[
            Column("id", make_type("INT"), not_null=True, auto_increment=True),
            Column("name", make_type("VARCHAR", 32), not_null=True),
            Column("score", make_type("FLOAT"), default=0),
        ],
        primary_key=["id"],
    )


class TestTableSchema:
    def test_column_lookup_case_insensitive(self):
        schema = make_schema()
        assert schema.column("NAME").name == "name"
        assert schema.has_column("Id")

    def test_unknown_column_raises(self):
        with pytest.raises(ColumnNotFoundError):
            make_schema().column("nope")

    def test_bad_primary_key_rejected(self):
        with pytest.raises(ColumnNotFoundError):
            TableSchema(name="t", columns=[Column("a", make_type("INT"))], primary_key=["b"])

    def test_normalize_fills_default(self):
        table = Table(make_schema())
        assert table.image(table.insert({"id": 1, "name": "x"}))["score"] == 0.0

    def test_normalize_rejects_unknown_column(self):
        with pytest.raises(ColumnNotFoundError):
            Table(make_schema()).insert({"id": 1, "name": "x", "bogus": 1})

    def test_normalize_enforces_not_null(self):
        with pytest.raises(TypeCheckError):
            Table(make_schema()).insert({"id": 1})

    def test_auto_increment_may_be_null(self):
        table = Table(make_schema())
        assert table.image(table.insert({"name": "x"}))["id"] == 1  # filled by the table

    def test_a_row_is_checked_in_schema_order_and_a_column_named_twice_takes_its_last_value(self):
        table = Table(make_schema())
        insert = table.inserter(["score", "name", "NAME"])
        with pytest.raises(TypeCheckError, match="'name'"):  # before score's bad value
            insert([("bad", None, None)], [])
        row_ids: list[int] = []
        with pytest.raises(TypeCheckError, match="cannot store"):
            insert([(1.5, "a", "b"), ("bad", "c", "d")], row_ids)
        assert [table.image(row_id) for row_id in row_ids] == [
            {"id": 1, "name": "b", "score": 1.5}]  # the rows before the error stay

    def test_from_ast(self):
        stmt = parse("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8))")
        schema = TableSchema.from_ast(stmt)
        assert schema.primary_key == ["id"]
        assert schema.column("v").type.length == 8

    def test_clone_renamed(self):
        clone = make_schema().clone_renamed("t_0")
        assert clone.name == "t_0"
        assert clone.column_names == ["id", "name", "score"]
