"""The benchmark harness still runs end to end at d = 16 against this checkout.

``bench/run.py --smoke`` drives every workload untraced and traced, so it fails
when a function the traced run wraps by name is renamed or removed, or when an
output at d = 16 is wrong.  It takes about half a minute.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "smoke: ok" in done.stdout.splitlines()
