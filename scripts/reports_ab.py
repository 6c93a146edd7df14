#!/usr/bin/env python3
"""Check that two source trees give the same results, byte for byte.

Usage: python scripts/reports_ab.py OLD_SRC NEW_SRC [--workload W ...] [--seed N]

Each SRC is a directory holding the ``ms2smiles`` package (a checkout's
``src``).  The inputs are always ``tests/data/fixture.tsv`` with its
transcripts.  Each ``--workload`` adds the dataset and transcripts that
``bench/workloads.py`` writes for ``--seed``; that module is imported
read-only, and its files go to a temporary directory.

For each input and tree, a fresh Python process with that SRC first on its
path runs ``run --provider mock:<transcripts>`` and then ``evaluate``, at
parallelism 1 with workers 1, and again at 2 with 2.  Between the two trees
it then compares ``reports/``, ``transcripts/`` and ``batch_log.tsv`` byte
for byte, and the file names in ``cache/``.  It prints each file that
differs or that only one tree wrote, and exits 1 on any difference, or if a
command exits non-zero on either tree.  Standard library only.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FIXTURE = REPO / "tests" / "data" / "fixture.tsv"
FIXTURE_TRANSCRIPTS = REPO / "tests" / "data" / "transcripts"
SETTINGS = ((1, 1), (2, 2))  # (run --parallelism, evaluate --workers)

# Runs in the child process: SRC first on the path, and the package must come from it.
CHILD = """
import sys
from pathlib import Path
src, dataset, transcripts, run_dir, parallelism, workers = sys.argv[1:]
sys.path.insert(0, src)
import ms2smiles.cli as cli
if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
    sys.exit(f"ms2smiles imported from {cli.__file__}, not from {src}")
common = ["--dataset", dataset, "--run-dir", run_dir, "--split", "test"]
code = cli.main(["run", *common, "--provider", "mock:" + transcripts, "--parallelism", parallelism])
sys.exit(code or cli.main(["evaluate", *common, "--workers", workers]))
"""


def workload_inputs(workload: str, seed: int, out: Path) -> tuple[Path, Path]:
    """The dataset and transcripts directory ``bench/workloads.py`` writes under ``out``."""
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(REPO / "bench"))
    import workloads

    workloads.write_inputs(workload, seed, workloads.records_for(workload, seed), out)
    return out / "dataset.tsv", out / "transcripts"


def run_tree(src: Path, dataset: Path, transcripts: Path, run_dir: Path, parallelism: int, workers: int) -> str | None:
    """``run`` then ``evaluate`` in a fresh process; None, or why it failed."""
    argv = [str(src), str(dataset), str(transcripts), str(run_dir), str(parallelism), str(workers)]
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, cwd=run_dir.parent)
    if done.returncode == 0:
        return None
    return f"exit {done.returncode}: {(done.stderr or done.stdout).strip()[-500:]}"


def snapshot(run_dir: Path) -> dict[str, bytes]:
    """The compared files by relative name; a cache file counts by name only."""
    files = {}
    for sub in ("reports", "transcripts"):
        for path in sorted((run_dir / sub).glob("*")):
            files[f"{sub}/{path.name}"] = path.read_bytes()
    log = run_dir / "batch_log.tsv"
    if log.is_file():
        files[log.name] = log.read_bytes()
    for path in sorted((run_dir / "cache").glob("*")):
        files[f"cache/{path.name}"] = b""
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", action="append", default=[], help="a bench/workloads.py workload; repeatable")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    args = parser.parse_args()

    differences = 0
    with tempfile.TemporaryDirectory(prefix="reports_ab-") as tmp:
        root = Path(tmp)
        inputs = {"fixture": (FIXTURE, FIXTURE_TRANSCRIPTS)}
        for workload in args.workload:
            inputs[workload] = workload_inputs(workload, args.seed, root / "inputs" / workload)
        for name, (dataset, transcripts) in inputs.items():
            for parallelism, workers in SETTINGS:
                case = f"{name} parallelism {parallelism} workers {workers}"
                sides = []
                for side, src in (("old", args.old_src), ("new", args.new_src)):
                    run_dir = root / side / f"{name}-p{parallelism}w{workers}" / "run"
                    run_dir.parent.mkdir(parents=True)
                    failure = run_tree(src.resolve(), dataset, transcripts, run_dir, parallelism, workers)
                    if failure:
                        print(f"{case}: {side} {failure}")
                        differences += 1
                    sides.append(snapshot(run_dir))
                old, new = sides
                differing = [f for f in sorted(old.keys() | new.keys()) if old.get(f) != new.get(f)]
                for f in differing:
                    where = "differs" if f in old and f in new else f"only in {'old' if f in old else 'new'}"
                    print(f"{case}: {f} {where}")
                differences += len(differing)
                if not differing:
                    print(f"{case}: {len(old)} files identical")
    print("same results" if differences == 0 else f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
