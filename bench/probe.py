"""Set-up probe: a fresh interpreter imports specmatch with its command-line
module, the way the `specmatch` command starts, and makes one warm-up call of
every operation a workload uses, on a tiny graph.

    python3 bench/probe.py <workload>

run.py times it from spawn to exit; that time is the workload's setup_s.
"""

import signal
import sys
from pathlib import Path

signal.alarm(120)  # a hung probe ends itself; run.py waits without polling
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import specmatch  # noqa: E402
import specmatch.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].warm_up(specmatch)
