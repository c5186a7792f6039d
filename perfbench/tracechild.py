"""Run ``python -m stegogame.cli ARGS`` with the benchmark's tracer installed.

    python3 perfbench/tracechild.py SPANS_FILE ARGS...

The spans the CLI call records are written to SPANS_FILE as JSON when it
ends; the exit code is the CLI's own.
"""

import json
import runpy
import sys

from tracer import Tracer


def main() -> int:
    spans_path = sys.argv[1]
    sys.argv = ["stegogame", *sys.argv[2:]]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        runpy.run_module("stegogame.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
