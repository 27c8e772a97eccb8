"""Run one etf-forge CLI invocation in-process, optionally traced.

    PYTHONPATH=src python3 bench/inproc.py --result R.json [--trace] -- verify etf m.json

Imports ``etf_forge.cli`` (not timed), then times ``etf_forge.cli.main`` on
the given arguments with stdout captured, and writes one JSON document to
``--result``: ``{"exit", "stdout", "main_s", "spans"}``.  With ``--trace``
every layer function is wrapped first (see ``spans.py``); without it the
program runs untouched, which gives the in-process baseline for the
tracing overhead and the CLI start-up share.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one CLI op in-process")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--op", type=int, default=0, help="op id recorded on spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import etf_forge.cli

    tracer = Tracer(args.op)
    if args.trace:
        tracer.install()
    captured = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(captured):
        code = etf_forge.cli.main(cli_args)
    main_s = perf_counter() - start
    args.result.write_text(json.dumps({"exit": code, "stdout": captured.getvalue(),
                                       "main_s": main_s, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
