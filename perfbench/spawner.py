"""Start the `cli` workload's commands from a small process.

    python perfbench/spawner.py

A child's peak resident memory, as wait4 reports it, counts the memory of the
process that started it, because the child runs in its parent's pages until
exec replaces them.  The benchmark's own process holds numpy, scipy and
bondtaylor and is as large as a CLI command, so its children would report
its size instead of theirs.  This process imports nothing large and starts
the commands instead.

Reads one JSON request per line on stdin,
{"argv": [...], "cwd": "...", "env": {...}, "timeout": seconds}, runs it to
its end and writes one JSON line on stdout,
{"status": exit code, "stdout": "...", "stderr": "...", "maxrss_kib": peak}.
Exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import threading


def run(request: dict) -> dict:
    proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(request["timeout"], proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"status": proc.returncode, "stdout": out.decode(errors="replace"),
            "stderr": err.decode(errors="replace"), "maxrss_kib": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
