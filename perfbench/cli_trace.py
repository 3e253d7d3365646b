"""``repro analyze FILE`` with its start-up split into spans.

Run as ``python perfbench/cli_trace.py FILE``.  Prints what the CLI
prints, then one JSON line of span durations (seconds) on stderr.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

# The script's own directory is on sys.path[0]; the program must come
# from PYTHONPATH alone.
sys.path.pop(0)

import repro.api  # noqa: E402,F401

imported_api = time.perf_counter()
import repro.cli  # noqa: E402

imported_cli = time.perf_counter()
code = repro.cli.main(["analyze", sys.argv[1]])
sys.stdout.flush()
finished = time.perf_counter()
print(
    json.dumps(
        {
            "startup.import_api_ms": imported_api - started,
            "startup.import_cli_ms": imported_cli - imported_api,
            "cli.main_ms": finished - imported_cli,
        }
    ),
    file=sys.stderr,
)
sys.exit(code)
