"""Tests for the command-line surfaces: the SQL console and the bench CLI."""

import os
import subprocess
import sys
from pathlib import Path

#: ``python -m paper`` runs from the benchmarks directory, beside the product
BENCH_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "benchmarks"),
                      os.environ.get("PYTHONPATH")])),
}


def run_bench(*args: str, timeout: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "paper", *args],
        capture_output=True, text=True, timeout=timeout, env=BENCH_ENV,
    )


def run_console(stdin: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin, capture_output=True, text=True, timeout=120,
    )


class TestConsole:
    def test_full_session(self):
        script = (
            "REGISTER RESOURCE ds0, ds1;\n"
            "CREATE SHARDING TABLE RULE t (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=k, PROPERTIES('sharding-count'=2));\n"
            "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(8));\n"
            "INSERT INTO t (k, v) VALUES (1,'a'),(2,'b');\n"
            "SELECT * FROM t ORDER BY k;\n"
            "exit;\n"
        )
        completed = run_console(script)
        assert completed.returncode == 0, completed.stderr
        assert "registered 2 resource(s)" in completed.stdout
        assert "2 row(s)" in completed.stdout

    def test_multiline_statement(self):
        script = (
            "REGISTER RESOURCE ds0;\n"
            "SELECT 1 AS a,\n"
            "       2 AS b;\n"
        )
        completed = run_console(script)
        assert completed.returncode == 0, completed.stderr
        assert "1 | 2" in completed.stdout

    def test_error_does_not_kill_session(self):
        script = (
            "SELECT * FROM no_such_table;\n"
            "REGISTER RESOURCE ds0;\n"
        )
        completed = run_console(script)
        assert completed.returncode == 0
        assert "ERROR:" in completed.stdout
        assert "registered 1 resource(s)" in completed.stdout

    def test_execute_flag(self):
        completed = run_console("", "--execute", "SHOW SHARDING ALGORITHMS")
        assert completed.returncode == 0
        assert "MOD" in completed.stdout


class TestBenchCLI:
    def test_sysbench_run(self):
        completed = run_bench(
            "--system", "ssj", "--scenario", "point_select",
            "--table-size", "2000", "--threads", "2", "--duration", "0.5",
            "--warmup", "0.1", timeout=180,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "TPS" in completed.stdout
        assert "0 errors" in completed.stdout

    def test_tpcc_run(self):
        completed = run_bench(
            "--workload", "tpcc", "--system", "ssj",
            "--sources", "2", "--tables-per-source", "1",
            "--threads", "2", "--duration", "0.5", "--warmup", "0.1", timeout=180,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "90T" in completed.stdout

    def test_bad_system_rejected(self):
        completed = run_bench("--system", "oracle9i", timeout=60)
        assert completed.returncode != 0
        assert "invalid choice: 'oracle9i'" in completed.stderr
