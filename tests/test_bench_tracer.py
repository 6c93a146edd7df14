"""The benchmark's tracer patches the package by name from outside; a
renamed binding must fail here rather than in a traced benchmark run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_benchmark_tracer_installs_on_this_checkout():
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]",
        "import tracing",
        "import ms2smiles.evaluate as evaluate",
        "import ms2smiles.gateway as gateway",
        "tracing.LayerProbe({}).install(1.0)",
        "tracing.install_latency_timers(evaluate, gateway, [], [])",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
