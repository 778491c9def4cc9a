"""Run one echolens CLI command with span recording.

Usage: python3 bench/traced_cli.py SPANS_JSON RUN_ID -- <echolens args...>

Times `import echolens.cli`, installs the span wrappers from spans.py, runs
the command under a root `cli.main` span and writes the spans to SPANS_JSON.
The exit code is the command's.
"""

from __future__ import annotations

import sys
import time

import spans


def main() -> int:
    spans_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON RUN_ID -- ARGS...")
    start = time.perf_counter()
    import echolens.cli
    import_s = time.perf_counter() - start
    rec = spans.Recorder(run_id)
    spans.instrument(rec)
    code = rec.call("cli.main", echolens.cli.main, argv)
    rec.dump(spans_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
