"""Tests of the benchmark's own machinery.

Run with: python3 -m pytest bench/tests
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import largegen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fake_transport import API_KEY, FakeChatTransport  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    for seed, name in ((7, "a"), (7, "b"), (8, "c")):
        workloads.write_inputs(workload, seed, workloads.records_for(workload, seed), tmp_path / name)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        if rel.name == "spec.json":
            continue  # holds the directory path
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    assert (tmp_path / "a" / "dataset.tsv").read_bytes() != (tmp_path / "c" / "dataset.tsv").read_bytes()


def test_large_generator_is_deterministic_and_covers_every_bin():
    first = largegen.build_library(3)
    second = largegen.build_library(3)
    assert first == second
    molecules = [m for f in first for m in (f.base, f.partner)]
    assert len({m.canonical for m in molecules}) == len(molecules)
    bins = {f.base.bin for f in first}
    assert len(bins) == 5


def test_repeated_smiles_share():
    assert workloads.repeated_share(workloads.records_for("score_small", 1)) > 0.9
    assert workloads.repeated_share(workloads.records_for("score_large", 1)) == 0.0


def test_failure_plan_is_deterministic_with_exact_shares():
    ids = [r.id for r in workloads.records_for("run_mixed", 5)]
    plan = workloads.failure_plan(5, ids)
    assert plan == workloads.failure_plan(5, list(reversed(ids)))
    counts = {n: sum(1 for v in plan.values() if v == n) for n in set(plan.values())}
    assert counts[workloads.MAX_RETRIES + 1] == 1
    assert counts[2] == round(0.05 * len(ids))
    assert counts[1] == round(0.14 * len(ids))
    statuses = [workloads.planned_status(5, rid, a, plan[rid]) for rid in ids for a in range(1, 6)]
    assert statuses == [workloads.planned_status(5, rid, a, plan[rid]) for rid in ids for a in range(1, 6)]


def test_transport_outcomes_do_not_depend_on_thread_interleaving():
    ids = [f"r{i}" for i in range(40)]
    plan = workloads.failure_plan(9, ids)
    prompts = {f"prompt {rid}": rid for rid in ids}
    headers = {"Authorization": f"Bearer {API_KEY}"}

    def outcomes(n_threads: int) -> dict:
        transport = FakeChatTransport(9, prompts, {rid: rid for rid in ids}, plan, latency_s=0.0)
        seen: dict[str, list[int]] = {}

        def work(chunk):
            for rid in chunk:
                for _ in range(workloads.MAX_RETRIES + 1):
                    payload = {"messages": [{"content": f"prompt {rid}"}]}
                    seen.setdefault(rid, []).append(transport("fake://", json=payload, headers=headers).status_code)

        threads = [threading.Thread(target=work, args=(ids[i::n_threads],)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        return seen

    assert outcomes(1) == outcomes(4)


def test_self_time_of_nested_spans(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracing, "perf_counter", lambda: clock[0])
    tracer = tracing.Tracer()

    def advance(seconds):
        clock[0] += seconds

    def leaf():
        advance(1.0)

    def middle():
        advance(2.0)
        traced_leaf()
        traced_leaf()
        advance(0.5)

    def outer():
        advance(3.0)
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()
    self_s, calls = tracer.totals()
    assert self_s == {"leaf": 2.0, "middle": 2.5, "outer": 3.0}
    assert calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert sum(self_s.values()) == clock[0]


def test_span_closes_when_the_call_raises(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracing, "perf_counter", lambda: clock[0])
    tracer = tracing.Tracer()

    def fail():
        clock[0] += 1.0
        raise ValueError("bad")

    traced_fail = tracer.wrap("fail", fail)

    def outer():
        with pytest.raises(ValueError):
            traced_fail()
        clock[0] += 4.0

    tracer.wrap("outer", outer)()
    assert tracer.totals()[0] == {"fail": 1.0, "outer": 4.0}


def test_reference_row_of_a_ground_truth_hit():
    molecules, pairs = workloads.load_molecules(), workloads.load_pairs()
    gt = next(iter(workloads.load_small_universe()[0]))
    record = workloads.Record("x", gt, [gt, "C1CC"], "", True)
    row, bound = workloads.expected_row(record, True, molecules, pairs)
    assert not bound
    fields = dict(zip(workloads.PER_SPECTRUM_FIELDS, row))
    assert fields["exact_top1"] == fields["exact_topk"] == "1"
    assert fields["n_candidates"] == "2" and fields["n_valid"] == "1"
    assert fields["mts_top1"] == "1.0" and fields["mces_topk"] == "0.0"
