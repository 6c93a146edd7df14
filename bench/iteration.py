#!/usr/bin/env python3
"""One measured pass of a workload in a fresh process: ``ms2smiles run``
then ``ms2smiles evaluate``, both called in-process through
``ms2smiles.cli.main``.  Writes its timings as JSON to ``--out``.

A fresh process per pass means each pass pays import and cold-memo costs,
as a user's command does.

Usage: python3 bench/iteration.py --inputs DIR --run-dir DIR --out FILE
       [--trace] [--serial]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from fake_transport import API_KEY, FakeChatTransport  # noqa: E402


def _setup() -> float:
    """Import the package and load its lazy tables; seconds taken."""
    start = time.perf_counter()
    import ms2smiles.cli
    from ms2smiles.chem import default_mass_table
    from ms2smiles.protocol import default_template

    default_mass_table()
    default_template()
    elapsed = time.perf_counter() - start
    if not Path(ms2smiles.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ms2smiles imported from {ms2smiles.cli.__file__}, not from {SRC}")
    return elapsed


def _install_transport(spec: dict, inputs: Path) -> FakeChatTransport:
    import requests
    from ms2smiles.dataset import load_dataset
    from ms2smiles.protocol import default_template, render_prompt

    template = default_template()
    records = load_dataset(str(inputs / "dataset.tsv")).records
    prompt_ids = {render_prompt(r, template).text: r.id for r in records}
    bodies = {r.id: (inputs / "transcripts" / f"{r.id}.txt").read_text(encoding="utf-8") for r in records}
    transport = FakeChatTransport(spec["seed"], prompt_ids, bodies, spec["plan"], workloads.TRANSPORT_LATENCY_S)
    requests.post = transport
    os.environ["MS2SMILES_API_KEY"] = API_KEY
    return transport


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--run-dir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--serial", action="store_true", help="workers=1, parallelism=1 and a single `run`")
    args = parser.parse_args()

    setup_s = _setup()
    import ms2smiles.cli as cli
    import ms2smiles.evaluate as evaluate
    import ms2smiles.gateway as gateway

    spec = json.loads((args.inputs / "spec.json").read_text(encoding="utf-8"))
    workers = 1 if args.serial else spec["workers"]
    parallelism = 1 if args.serial else workloads.RUN_PARALLELISM
    run_dir = args.run_dir
    config = run_dir.parent / f"{run_dir.name}.conf"
    config.write_text(
        "model = bench-model\n"
        "endpoint = fake://chat/completions\n"
        f"retry_base_delay = {workloads.RETRY_BASE_DELAY_S}\n"
        f"max_retries = {workloads.MAX_RETRIES}\n",
        encoding="utf-8",
    )

    def argv(command: str, directory: Path, *extra: str, dataset: str = "dataset.tsv") -> list[str]:
        return [command, "--dataset", str(args.inputs / dataset), "--run-dir", str(directory),
                "--split", "test", "--config", str(config), *extra]

    # `run` is timed over at least MIN_REQUESTS prompts; each repeat gets a
    # fresh run directory, and the last one is the one `evaluate` scores.
    # Serial passes feed the per-layer counts, so they run it once.
    repeats = 1 if args.serial else -(-workloads.MIN_REQUESTS // spec["n_records"])
    run_dirs = [run_dir.with_name(f"{run_dir.name}-r{k}") for k in range(repeats - 1)] + [run_dir]
    transport = _install_transport(spec, args.inputs)
    for directory in run_dirs:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        if spec["prewarm"]:
            if cli.main(argv("run", directory, "--provider", "http", dataset="prewarm.tsv")) != 0:
                raise SystemExit("pre-warm run failed")
            shutil.rmtree(directory / "transcripts")
            (directory / "batch_log.tsv").unlink()
    transport.reset()

    spectrum_ms: list[float] = []
    request_ms: list[float] = []
    probe = None
    main_fn = cli.main
    if args.trace:
        probe = tracing.LayerProbe(spec["bins"])
        probe.install(workloads.MCES_BUDGET)
        main_fn = probe.tracer.wrap("cli", cli.main)
    else:
        tracing.install_latency_timers(evaluate, gateway, spectrum_ms, request_ms)

    run_s = []
    for directory in run_dirs:
        start = time.perf_counter()
        code = main_fn(argv("run", directory, "--provider", "http", "--parallelism", str(parallelism)))
        run_s.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"ms2smiles run exited with {code}")
    start = time.perf_counter()
    code = main_fn(argv("evaluate", run_dir, "--workers", str(workers)))
    eval_s = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"ms2smiles evaluate exited with {code}")

    if workers > 1 and not args.trace:
        spectrum_ms = [1000.0 * d for d in tracing.TimedPool.durations]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "eval_s": eval_s,
        "workers": workers,
        "spectrum_ms": spectrum_ms,
        "request_ms": request_ms,
        "peak_rss_mb": (self_rss + child_rss) / 1024.0,
    }
    if probe is not None:
        self_s, calls = probe.tracer.totals()
        result["trace"] = {
            "self_s": self_s,
            "calls": dict(calls),
            "unique_parsed": len(set(probe.parsed_smiles)),
            "mces_calls": probe.mces_calls,
            "overrun_s": probe.overrun_s,
            "cache_hits": probe.cache_hits,
        }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
