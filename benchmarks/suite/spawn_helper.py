"""Start measured child processes from a small address space.

Run by ``measure.Spawner``, never imported. Reads one JSON request per
line on stdin (``argv``, ``env``, ``stderr`` path, ``timeout_s``), runs
it to exit with stdout discarded, and answers one JSON line:
``wall_s`` (spawn to exit), ``cpu_s`` and ``peak_rss_mb`` (the child's
``os.wait4`` rusage) and ``exit_code``. A child still running after
``timeout_s`` is killed. Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "w", encoding="utf-8") as stderr:
            started = time.perf_counter()
            process = subprocess.Popen(
                request["argv"], env=request["env"],
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
            watchdog = threading.Timer(request["timeout_s"], process.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                watchdog.cancel()
            wall_s = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": process.returncode,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
