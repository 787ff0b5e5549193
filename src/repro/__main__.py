"""Interactive SQL console: ``python -m repro``.

A mysql-client-style REPL against either a fresh in-process
ShardingRuntime (default) or a running ShardingSphere-Proxy
(``--connect host:port``). Accepts both SQL and DistSQL, so a whole
deployment can be configured and used interactively::

    $ python -m repro
    repro-sql> REGISTER RESOURCE ds0, ds1;
    repro-sql> CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1),
           ...   SHARDING_COLUMN=uid, TYPE=hash_mod,
           ...   PROPERTIES('sharding-count'=4));
    repro-sql> CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(64));
    repro-sql> INSERT INTO t_user (uid, name) VALUES (1, 'ann');
    repro-sql> PREVIEW SELECT * FROM t_user WHERE uid = 1;
"""

from __future__ import annotations

import argparse
import sys

from . import clock
from .adaptors import ShardingDataSource
from .bench.report import format_table
from .exceptions import ShardingSphereError

PROMPT = "repro-sql> "
CONTINUATION = "       ... "


def _print_result(result, elapsed: float) -> None:
    if result.description is not None:
        rows = result.fetchall()
        print(format_table(result.columns, rows))
        print(f"{len(rows)} row(s) in {elapsed * 1000:.1f} ms")
    else:
        message = getattr(result, "message", None) or "OK"
        rowcount = getattr(result, "rowcount", -1)
        suffix = f", {rowcount} row(s) affected" if rowcount >= 0 else ""
        print(f"{message}{suffix} ({elapsed * 1000:.1f} ms)")


def _read_statement(stream) -> str | None:
    """Read lines until a terminating ';' (or EOF). None at EOF."""
    buffer: list[str] = []
    prompt = PROMPT
    while True:
        if stream is sys.stdin and sys.stdin.isatty():
            try:
                line = input(prompt)
            except EOFError:
                return None
        else:
            line = stream.readline()
            if not line:
                return None
            line = line.rstrip("\n")
        buffer.append(line)
        joined = " ".join(buffer).strip()
        if joined.endswith(";") or joined.lower() in ("exit", "quit", r"\q"):
            return joined
        if not joined:
            buffer.clear()
            continue
        prompt = CONTINUATION


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="Interactive SQL/DistSQL console."
    )
    parser.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="connect to a running ShardingSphere-Proxy instead of an "
             "in-process runtime",
    )
    parser.add_argument("--execute", "-e", default=None,
                        help="run one statement and exit")
    args = parser.parse_args(argv)

    if args.connect:
        from .protocol import ProxyClient

        host, _, port = args.connect.partition(":")
        session = ProxyClient(host, int(port))
        close = session.close
        print(f"connected to {session.server_info.get('server')}")
    else:
        data_source = ShardingDataSource()
        session = data_source.get_connection()

        def close() -> None:
            session.close()
            data_source.close()

        print("in-process runtime ready; REGISTER RESOURCE ... to begin")

    def run(statement: str) -> None:
        text = statement.strip().rstrip(";").strip()
        if not text:
            return
        start = clock.now()
        try:
            result = session.execute(text)
        except ShardingSphereError as exc:
            print(f"ERROR: {exc}")
            return
        _print_result(result, clock.now() - start)

    try:
        if args.execute is not None:
            run(args.execute)
            return 0
        while True:
            statement = _read_statement(sys.stdin)
            if statement is None:
                break
            if statement.strip().rstrip(";").lower() in ("exit", "quit", r"\q"):
                break
            run(statement)
    finally:
        close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
