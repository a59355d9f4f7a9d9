"""Record the sha256 of every output the benchmark can request.

    python3 perfbench/record_digests.py

Runs each request of every workload's full input domain (and of the
self-test sizes) once, checks it against the oracle in checks.py, and
writes ``digests.json``.  The benchmark then demands byte-identical output
for every request under any seed.  Re-record only when the output format
is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import workloads
from child import import_program


def main() -> int:
    pkg = import_program()
    digests: dict[str, str] = {}
    for table in (workloads.WORKLOADS, workloads.TINY):
        for workload in table.values():
            for argv in workload.requests():
                if argv[0] != "fib":  # fib output does not depend on cache state
                    pkg.sequences.CACHE.clear()
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = pkg.cli.main(argv)
                reason = checks.check_output(argv, rc, out.getvalue())
                if reason:
                    print(f"refusing to record a wrong output: {reason}", file=sys.stderr)
                    return 1
                digests[checks.request_key(argv)] = checks.digest(out.getvalue().encode())
                print(checks.request_key(argv), flush=True)
        pkg.sequences.CACHE.clear()
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {checks.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
