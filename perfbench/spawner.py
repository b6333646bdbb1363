"""Starts commands for run.py and reports their wall time and peak RSS.

On Linux a child's ``ru_maxrss`` can never read below the resident size of
the process that spawned it, because the spawning process's memory is
shared or copied into the child until ``exec``. run.py holds the generated
corpus, so it starts this small process first and has it spawn every
measured command. One JSON request per stdin line, one reply per stdout line:

    {"argv": [...], "stdout": PATH, "stderr": PATH}
    {"wall_s": 0.41, "reference_s": 0.031, "maxrss_kb": 40212, "code": 0}

``reference_s`` is the mean time of ``reference()`` run just before and just
after the command. On a shared host the speed of a core swings by a third
or more within seconds; the reference loop slows with the command that runs
beside it, so run.py divides one by the other. To keep both on the same
core, this process and every command it starts are pinned to one CPU.
"""

import json
import os
import sys
import time

REFERENCE_KEYS = 100_000  # 25–60 ms of interpreter work on a shared 2-core x86 VM


def reference() -> float:
    """Time a fixed piece of pure-Python work that does not touch the program."""
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_KEYS):
        table[str(i)] = i * 2
    sum(len(key) for key in table)
    return time.perf_counter() - start


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        request = json.loads(line)
        out = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        before = reference()
        try:
            start = time.perf_counter()
            pid = os.posix_spawnp(request["argv"][0], request["argv"], os.environ,
                                  file_actions=[(os.POSIX_SPAWN_DUP2, out, 1),
                                                (os.POSIX_SPAWN_DUP2, err, 2)])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(out)
            os.close(err)
        reply = {"wall_s": wall, "reference_s": (before + reference()) / 2,
                 "maxrss_kb": usage.ru_maxrss, "code": os.waitstatus_to_exitcode(status)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
