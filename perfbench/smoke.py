"""Tiny-scale smoke run of every benchmark workload, traced and untraced.

Checks that the harness runs end to end and that every output check passes,
in well under a minute. It is not part of the test suite.

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    failed = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", trace, "--scale", "smoke"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=180,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            ok = result.get("correct") is True
            failed += not ok
            print(f"{name:9s} trace={trace} exit={proc.returncode} correct={result.get('correct')} "
                  f"attempted={result.get('attempted')} metrics={len(result.get('metrics', {}))}")
            if not ok:
                sys.stderr.write(proc.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
