#!/usr/bin/env python3
"""The ms2smiles benchmark: one workload, one seed, one JSON line.

Generates the workload's inputs from the seed, runs passes of
``ms2smiles run`` + ``ms2smiles evaluate`` (each pass a fresh process, see
``iteration.py``) for about ``--seconds``, checks every output against the
reference tables, and prints the metrics as the last line of stdout.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
runs one untraced pass at the workload's own settings, then untraced and
traced passes at workers=1 and parallelism=1, and prints the per-layer
metrics.  Exits 1 when an output check fails.

Usage: python3 bench/run.py --workload score_small --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 2
PASS_TIMEOUT_S = 170.0
REPORT_FILES = ("per_spectrum.csv", "aggregate.csv", "aggregate.json", "per_bin.csv", "cot_audit.csv")


class CheckFailed(Exception):
    pass


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_pass(inputs: Path, run_dir: Path, trace: bool, serial: bool, log) -> dict:
    out = run_dir.parent / f"{run_dir.name}.json"
    argv = [sys.executable, str(HERE / "iteration.py"), "--inputs", str(inputs), "--run-dir", str(run_dir), "--out", str(out)]
    argv += ["--trace"] if trace else []
    argv += ["--serial"] if serial else []
    proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
    try:
        code = proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"pass timed out after {PASS_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"pass exited with code {code}; see {log.name}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["run_dir"] = run_dir
    return result


# ------------------------------------------------------------------ checks


def check_pass(workload: str, spec: dict, records, result: dict, molecules, pairs) -> tuple[int, int, int]:
    """Compare one pass's outputs with the reference; (attempted, failed, checked)."""
    run_dir: Path = result["run_dir"]
    failed_prompts = _check_batch(spec, records, run_dir)
    failed = failed_prompts if workload == "run_mixed" else 0
    delivered = {r.id: spec["plan"].get(r.id, 0) <= workloads.MAX_RETRIES for r in records}

    with open(run_dir / "reports" / "per_spectrum.csv", newline="", encoding="utf-8") as fh:
        rows = {row[0]: row for row in list(csv.reader(fh))[1:]}
    checked = 0
    for record in records:
        row = rows.get(record.id)
        if row is None:
            if workload != "run_mixed":
                failed += 1
            continue
        if row[-1] == "1":
            if workload != "run_mixed":
                failed += 1
            continue
        expected = workloads.expected_row(record, delivered[record.id], molecules, pairs)
        if expected is None or expected[1]:
            continue  # the reference value itself was a truncated bound
        if row != expected[0]:
            raise CheckFailed(f"{record.id}: per_spectrum.csv row {row} != reference {expected[0]}")
        checked += 1
    return len(records), failed, checked


def _check_batch(spec: dict, records, run_dir: Path) -> int:
    """Transcripts equal the canned bodies; statuses, attempts and cache
    flags follow the plan.  Returns the number of prompts not ok."""
    prewarm = set(spec["prewarm"])
    with open(run_dir / "batch_log.tsv", newline="", encoding="utf-8") as fh:
        log = {row["record_id"]: row for row in csv.DictReader(fh, delimiter="\t")}
    failed = 0
    for record in records:
        row = log.get(record.id)
        if row is None:
            raise CheckFailed(f"{record.id}: missing from batch_log.tsv")
        planned = spec["plan"].get(record.id, 0)
        if record.id in prewarm:
            want = ("ok", "0", "1")
        elif planned > workloads.MAX_RETRIES:
            want = (row["status"] if row["status"] != "ok" else "not ok", str(workloads.MAX_RETRIES + 1), "0")
        else:
            want = ("ok", str(planned + 1), "0")
        got = (row["status"], row["attempts"], row["cached"])
        if got != want:
            raise CheckFailed(f"{record.id}: batch log (status, attempts, cached) {got} != {want}")
        if row["status"] != "ok":
            failed += 1
            continue
        transcript = (run_dir / "transcripts" / f"{record.id}.txt").read_text(encoding="utf-8")
        if transcript != record.transcript:
            raise CheckFailed(f"{record.id}: transcript differs from the canned body")
    return failed


def check_identical_reports(a: Path, b: Path) -> None:
    for name in REPORT_FILES:
        if (a / "reports" / name).read_bytes() != (b / "reports" / name).read_bytes():
            raise CheckFailed(f"reports/{name} differs between two passes")


# ----------------------------------------------------------------- metrics


def end_to_end(spec: dict, passes: list[dict]) -> dict:
    """Medians over passes; latency percentiles are taken per pass first."""
    n = spec["n_records"]
    values = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "spectra_per_s": (statistics.median(n / p["eval_s"] for p in passes), "1/s"),
        "spectrum_ms_p50": (statistics.median(statistics.median(p["spectrum_ms"]) for p in passes), "ms"),
        "spectrum_ms_p90": (statistics.median(_p90(p["spectrum_ms"]) for p in passes), "ms"),
        "requests_per_s": (statistics.median(n / s for p in passes for s in p["run_s"]), "1/s"),
        "request_ms_p50": (statistics.median(statistics.median(p["request_ms"]) for p in passes), "ms"),
        "request_ms_p90": (statistics.median(_p90(p["request_ms"]) for p in passes), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _wall(result: dict) -> float:
    return sum(result["run_s"]) + result["eval_s"]


def per_layer(untraced: list[dict], traced: list[dict], own: dict) -> dict:
    """Spans and counters of the first traced pass; the overhead compares
    all traced passes with all untraced serial passes."""
    t = traced[0]["trace"]
    self_s, calls = t["self_s"], t["calls"]
    mces_calls = t["mces_calls"]
    metrics: dict[str, tuple[float, str]] = {}

    def spans(name: str, with_calls: bool = False) -> None:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        if with_calls:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")

    spans("chem.mol_from_smiles", True)
    metrics["chem.parses_per_unique_smiles"] = (calls.get("chem.mol_from_smiles", 0) / max(1, t["unique_parsed"]), "ratio")
    spans("chem.canonical_smiles", True)
    spans("similarity.morgan_fingerprint", True)
    spans("similarity.tanimoto")
    spans("similarity.mces", True)
    n_mces = len(mces_calls)
    metrics["similarity.mces.exact_ratio"] = (sum(c[3] for c in mces_calls) / n_mces if n_mces else 1.0, "ratio")
    metrics["similarity.mces.overrun_s"] = (t["overrun_s"], "s")
    metrics["similarity.mces.pair_ms_p90"] = (1000.0 * _p90([c[2] for c in mces_calls]) if n_mces > 1 else 0.0, "ms")
    for key in workloads.BIN_KEYS.values():
        metrics[f"similarity.mces.self_s.{key}"] = (sum(c[1] for c in mces_calls if c[0] == key), "s")
    for key in workloads.BIN_KEYS.values():
        metrics[f"similarity.mces.truncated.{key}"] = (sum(1 for c in mces_calls if c[0] == key and not c[3]), "count")
    for name in ("dataset.load_dataset", "dataset.weight_bin", "protocol.parse_response", "protocol.render_prompt",
                 "evaluate.evaluate_records", "evaluate.evaluate_one", "evaluate.score_spectrum", "evaluate.audit_cot",
                 "evaluate.aggregate", "evaluate.write_reports"):
        spans(name)
    if own["workers"] == 1:
        metrics["evaluate.pool_efficiency"] = (1.0, "ratio")
    else:
        serial_eval = statistics.median(p["eval_s"] for p in untraced)
        metrics["evaluate.pool_efficiency"] = (serial_eval / (own["workers"] * own["eval_s"]), "ratio")
    spans("gateway.run_batch")
    spans("gateway.complete", True)
    n_complete = calls.get("gateway.complete", 0)
    metrics["gateway.cache_hit_ratio"] = (t["cache_hits"] / n_complete if n_complete else 0.0, "ratio")
    spans("gateway.cache_get")
    spans("gateway.cache_put")
    spans("gateway.fetch")
    metrics["gateway.fetch.attempts"] = (calls.get("gateway.fetch", 0), "count")
    spans("cli")
    untraced_wall = sum(_wall(p) for p in untraced)
    metrics["trace.overhead_pct"] = (100.0 * (sum(_wall(p) for p in traced) - untraced_wall) / untraced_wall, "%")
    metrics["trace.accounted_pct"] = (100.0 * sum(self_s.values()) / _wall(traced[0]), "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "ms2smiles").is_dir():
        print(f"no ms2smiles sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    start = time.perf_counter()
    records = workloads.records_for(args.workload, args.seed)
    spec = workloads.write_inputs(args.workload, args.seed, records, inputs)
    molecules, pairs = workloads.load_molecules(), workloads.load_pairs()
    print(f"inputs generated in {time.perf_counter() - start:.2f} s ({spec['n_records']} records)", file=sys.stderr)

    attempted = failed = checked = 0
    try:
        with open(work / "passes.log", "w", encoding="utf-8") as log:
            passes: list[dict] = []

            def one(trace: bool = False, serial: bool = False) -> dict:
                result = run_pass(inputs, work / f"pass{len(passes)}", trace, serial, log)
                passes.append(result)
                return result

            if args.trace:
                # Untraced and traced serial passes alternate, so a drift in
                # machine speed biases the overhead less.
                own = one()
                untraced, traced = [], []
                for _ in range(2):
                    untraced.append(one(serial=True))
                    traced.append(one(trace=True, serial=True))
            else:
                begin = time.perf_counter()
                while True:
                    one()
                    elapsed = time.perf_counter() - begin
                    if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                        break

        for result in passes:
            a, f, c = check_pass(args.workload, spec, records, result, molecules, pairs)
            attempted, failed, checked = attempted + a, failed + f, checked + c
        if args.workload == "score_small":
            check_identical_reports(passes[0]["run_dir"], passes[1]["run_dir"])
        if args.trace:
            metrics = per_layer(untraced, traced, own)
            accounted = metrics["trace.accounted_pct"]["value"]
            if not 95.0 <= accounted <= 105.0:
                raise CheckFailed(f"self times account for {accounted:.1f}% of traced wall time")
        else:
            metrics = end_to_end(spec, passes)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, attempted), "failed": failed, "metrics": {}}))
        return 1
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print(f"{len(passes)} passes, {checked} records checked against the reference", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
