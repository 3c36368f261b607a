"""Start benchmark children on request; report wall time, exit code, max RSS.

Reads one JSON request per line on stdin,
``{"argv": [...], "cwd": DIR, "stdout": FILE, "stderr": FILE}``, runs it to
completion and writes one JSON line ``{"wall_s", "code", "rss_mb"}``.

A child's ``ru_maxrss`` from ``os.wait4`` includes the peak RSS of the
process it was forked from. run.py grows large while it generates inputs and
hashes outputs, so it starts children through this small process, whose own
peak stays below that of any child.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, \
                open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                     stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "code": child.returncode,
                          "rss_mb": usage.ru_maxrss / 1024}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
