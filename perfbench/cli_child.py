"""Run the gaugecount CLI with spans around its layer calls.

Usage: python3 cli_child.py SPANS_JSON CLI_ARGS...

Behaves like `python -m gaugecount.cli CLI_ARGS...` (gaugecount must be on
PYTHONPATH) and, when the CLI ends, even by an exception, writes
{"import_s": seconds to import gaugecount.cli, "spans": [...]} to SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import gaugecount.cli as cli  # noqa: E402
import_s = time.perf_counter() - t0

from spans import Tracer  # noqa: E402  (this file's directory is sys.path[0])


def main() -> int:
    tracer = Tracer()
    tracer.install()
    rec = tracer.open("cli.resolve")
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.close(rec)
        tracer.uninstall()
        Path(sys.argv[1]).write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
