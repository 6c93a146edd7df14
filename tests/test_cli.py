from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from ms2smiles import cli
from ms2smiles.cli import main
from ms2smiles.gateway import MockProvider
from ms2smiles.protocol import MAX_CANDIDATES

FIXTURE = str(Path(__file__).parent / "data" / "fixture.tsv")
TRANSCRIPTS = str(Path(__file__).parent / "data" / "transcripts")


def _run_pipeline(run_dir):
    args = ["--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test"]
    assert main(["run", *args, "--provider", f"mock:{TRANSCRIPTS}"]) == 0
    assert main(["evaluate", *args, "--workers", "1"]) == 0


def test_ingest_ok(capsys):
    assert main(["ingest", "--dataset", FIXTURE]) == 0
    out = capsys.readouterr().out
    assert "valid records: 3" in out
    assert "test 3" in out


def test_ingest_missing_file(tmp_path, capsys):
    assert main(["ingest", "--dataset", str(tmp_path / "nope.tsv")]) == 1


def test_ingest_no_valid_rows(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("id\tmzs\tintensities\tsmiles\tprecursor_formula\tfold\n", encoding="utf-8")
    assert main(["ingest", "--dataset", str(bad)]) == 1


def test_ingest_with_skips_still_succeeds(tmp_path, capsys):
    path = tmp_path / "mixed.tsv"
    path.write_text(
        "id\tmzs\tintensities\tsmiles\tprecursor_formula\tfold\n"
        "good\t10.0\t1.0\tCCO\tC2H6O\ttest\n"
        "bad1\t10.0 20.0\t1.0\tCCO\tC2H6O\ttest\n"
        "bad2\t10.0\t1.0\tC1CC\tC2H6O\ttest\n"
        "bad3\t10.0\t1.0\tCCO\tC2H6O\tnowhere\n",
        encoding="utf-8",
    )
    assert main(["ingest", "--dataset", str(path)]) == 0
    assert "skipped rows: 3" in capsys.readouterr().out


def test_run_and_evaluate_with_mock(tmp_path):
    run_dir = tmp_path / "run"
    _run_pipeline(run_dir)
    transcripts = run_dir / "transcripts"
    assert sorted(p.name for p in transcripts.glob("*.txt")) == [
        "amine-001.txt",
        "benzene-002.txt",
        "ethanol-003.txt",
    ]
    reports = run_dir / "reports"
    for name in ("per_spectrum.csv", "aggregate.csv", "aggregate.json", "per_bin.csv", "cot_audit.csv"):
        assert (reports / name).exists()
    log = (run_dir / "batch_log.tsv").read_text(encoding="utf-8")
    assert "amine-001\tok" in log


def test_run_writes_transcripts_only_inside_the_transcripts_directory(tmp_path):
    replies = tmp_path / "mock" / "replies"
    replies.mkdir(parents=True)
    transcript = (Path(TRANSCRIPTS) / "ethanol-003.txt").read_text(encoding="utf-8")
    for name in ("ok", "../evil"):  # the second lands beside the replies directory
        (replies / f"{name}.txt").write_text(transcript, encoding="utf-8")
    dataset = tmp_path / "ids.tsv"
    dataset.write_text(
        "id\tmzs\tintensities\tsmiles\tprecursor_formula\tfold\n"
        "ok\t10.0\t1.0\tCCO\tC2H6O\ttest\n"
        "../evil\t10.0\t1.0\tCCO\tC2H6O\ttest\n"
        "ok\t10.0\t1.0\tCCC\tC3H8\ttest\n",
        encoding="utf-8",
    )
    before = set(tmp_path.rglob("*"))
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", str(dataset), "--run-dir", str(run_dir), "--provider", f"mock:{replies}"]) == 0
    written = sorted(
        p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file() and p not in before
    )
    assert [p for p in written if not p.startswith(("run/cache/", "run/batch_log.tsv"))] == [
        "run/transcripts/ok.txt"
    ]


def test_rerun_uses_cache(tmp_path):
    run_dir = tmp_path / "run"
    args = ["--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test",
            "--provider", f"mock:{TRANSCRIPTS}"]
    assert main(["run", *args]) == 0
    assert main(["run", *args]) == 0
    log = (run_dir / "batch_log.tsv").read_text(encoding="utf-8")
    for line in log.splitlines()[1:]:
        assert line.endswith("\t1")  # cached on the second pass


def test_run_fails_when_no_request_succeeds(tmp_path, capsys):
    empty = tmp_path / "no-transcripts"
    empty.mkdir()
    args = ["--dataset", FIXTURE, "--run-dir", str(tmp_path / "run"), "--split", "test"]
    assert main(["run", *args, "--provider", f"mock:{empty}"]) == 3
    assert "0/3 transcripts" in capsys.readouterr().out


def test_run_with_some_failures_still_succeeds(tmp_path):
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "amine-001.txt").write_text(
        (Path(TRANSCRIPTS) / "amine-001.txt").read_text(encoding="utf-8"), encoding="utf-8"
    )
    run_dir = tmp_path / "run"
    args = ["--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test"]
    assert main(["run", *args, "--provider", f"mock:{partial}"]) == 0
    assert sorted(p.name for p in (run_dir / "transcripts").glob("*.txt")) == ["amine-001.txt"]


def test_rerun_removes_the_transcript_of_a_failed_record(tmp_path, capsys):
    run_dir = tmp_path / "run"
    args = ["--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test"]
    _run_pipeline(run_dir)
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "amine-001.txt").write_text(
        (Path(TRANSCRIPTS) / "amine-001.txt").read_text(encoding="utf-8"), encoding="utf-8"
    )
    capsys.readouterr()
    assert main(["run", *args, "--model", "other-model", "--provider", f"mock:{partial}"]) == 0
    assert "1/3 transcripts" in capsys.readouterr().out
    assert sorted(p.name for p in (run_dir / "transcripts").glob("*.txt")) == ["amine-001.txt"]
    assert main(["evaluate", *args, "--workers", "1"]) == 0
    with open(run_dir / "reports" / "per_spectrum.csv", newline="", encoding="utf-8") as fh:
        rows = {row["record_id"]: row for row in csv.DictReader(fh)}
    for record_id in ("benzene-002", "ethanol-003"):  # failed requests score as empty
        assert rows[record_id]["has_think"] == "0"
        assert rows[record_id]["n_candidates"] == "0"
    assert rows["amine-001"]["has_think"] == "1"


def test_run_output_does_not_depend_on_parallelism(tmp_path):
    runs = {}
    for parallelism in ("1", "2"):
        run_dir = tmp_path / f"p{parallelism}"
        assert main(["run", "--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test",
                     "--provider", f"mock:{TRANSCRIPTS}", "--parallelism", parallelism]) == 0
        runs[parallelism] = (
            {p.name: p.read_bytes() for p in (run_dir / "transcripts").iterdir()},
            (run_dir / "batch_log.tsv").read_bytes(),
            sorted(p.name for p in (run_dir / "cache").iterdir()),
        )
    assert runs["1"] == runs["2"]
    assert len(runs["1"][2]) == 3


def test_run_writes_each_transcript_as_its_request_completes(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    seen = {}  # record id -> the transcripts already written when its request starts
    fetch = MockProvider.fetch

    def probing(self, prompt, config, record_id):
        seen[record_id] = sorted(p.name for p in (run_dir / "transcripts").iterdir())
        return fetch(self, prompt, config, record_id)

    monkeypatch.setattr(MockProvider, "fetch", probing)
    assert main(["run", "--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test",
                 "--provider", f"mock:{TRANSCRIPTS}", "--parallelism", "1"]) == 0
    assert seen == {
        "amine-001": [],
        "benzene-002": ["amine-001.txt"],
        "ethanol-003": ["amine-001.txt", "benzene-002.txt"],
    }


class _Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which ``except Exception`` does not catch."""


@pytest.mark.parametrize("earlier_run", [False, True])
def test_interrupted_run_leaves_the_delivered_transcripts_and_no_batch_log(tmp_path, monkeypatch, earlier_run):
    run_dir = tmp_path / "run"
    if earlier_run:  # all three transcripts, a batch log and reports, under another model's cache keys
        _run_pipeline(run_dir)
    reports = run_dir / "reports"

    def report_bytes():
        return {p.name: p.read_bytes() for p in reports.iterdir()} if reports.exists() else None

    before = report_bytes()
    raised = threading.Event()
    fetch = MockProvider.fetch

    def interrupting(self, prompt, config, record_id):
        if record_id == "benzene-002":
            raised.set()
            raise _Interrupt
        if record_id == "amine-001":  # still in flight when benzene-002 raises
            assert raised.wait(timeout=5)
            time.sleep(0.2)
        return fetch(self, prompt, config, record_id)

    delivered = []
    run_batch = cli.run_batch

    def recording_run_batch(*args, deliver, **kwargs):
        def record(outcome):
            deliver(outcome)
            delivered.append(outcome.record_id)

        return run_batch(*args, deliver=record, **kwargs)

    monkeypatch.setattr(MockProvider, "fetch", interrupting)
    monkeypatch.setattr(cli, "run_batch", recording_run_batch)
    with pytest.raises(_Interrupt):
        main(["run", "--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test", "--model", "other",
              "--provider", f"mock:{TRANSCRIPTS}", "--parallelism", "2"])
    assert delivered == ["amine-001"]
    assert not (run_dir / "batch_log.tsv").exists()
    # so its transcripts, beside any an earlier run left, are never scored
    assert main(["evaluate", "--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test",
                 "--workers", "1"]) == 1
    assert report_bytes() == before


def test_a_run_whose_provider_cannot_start_leaves_the_finished_run_scorable(tmp_path, monkeypatch, capsys):
    run_dir = tmp_path / "run"
    _run_pipeline(run_dir)

    def contents():
        return {p: p.read_bytes() if p.is_file() else None for p in run_dir.rglob("*")}

    before = contents()
    monkeypatch.delenv("MS2SMILES_API_KEY", raising=False)
    args = ["--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test"]
    assert main(["run", *args, "--provider", "http", "--model", "m2"]) == 3
    assert "MS2SMILES_API_KEY is not set" in capsys.readouterr().err
    assert contents() == before
    assert main(["evaluate", *args, "--workers", "1"]) == 0
    assert contents() == before


def test_the_benchmark_run_directory_sequence_leaves_a_scorable_run(tmp_path):
    """The steps of ``bench/iteration.py`` on the fixture: a pre-warm ``run``
    of some records, the removal of its transcripts and batch log, then
    ``run`` and ``evaluate`` over the whole split."""
    lines = Path(FIXTURE).read_text(encoding="utf-8").splitlines(keepends=True)
    prewarm = tmp_path / "prewarm.tsv"
    prewarm.write_text("".join(lines[:2]), encoding="utf-8")  # header and amine-001
    run_dir = tmp_path / "run"
    args = ["--run-dir", str(run_dir), "--split", "test"]
    mock = ["--provider", f"mock:{TRANSCRIPTS}"]
    assert main(["run", "--dataset", str(prewarm), *args, *mock]) == 0
    shutil.rmtree(run_dir / "transcripts")
    (run_dir / "batch_log.tsv").unlink()
    assert main(["run", "--dataset", FIXTURE, *args, *mock, "--parallelism", "2"]) == 0
    assert main(["evaluate", "--dataset", FIXTURE, *args, "--workers", "1"]) == 0
    with open(run_dir / "batch_log.tsv", newline="", encoding="utf-8") as fh:
        cached = {row["record_id"]: row["cached"] for row in csv.DictReader(fh, delimiter="\t")}
    assert cached == {"amine-001": "1", "benzene-002": "0", "ethanol-003": "0"}


def test_evaluate_requires_transcripts(tmp_path):
    code = main(["evaluate", "--dataset", FIXTURE, "--run-dir", str(tmp_path / "never-ran"),
                 "--split", "test"])
    assert code == 1


def test_evaluate_treats_missing_transcript_as_empty(tmp_path):
    run_dir = tmp_path / "run"
    (run_dir / "transcripts").mkdir(parents=True)
    (run_dir / "batch_log.tsv").write_text(  # as a finished run whose requests all failed leaves it
        "record_id\tstatus\tattempts\tcached\n"
        + "".join(f"{r}\thttp_error\t1\t0\n" for r in ("amine-001", "benzene-002", "ethanol-003")),
        encoding="utf-8",
    )
    assert main(["evaluate", "--dataset", FIXTURE, "--run-dir", str(run_dir),
                 "--split", "test", "--workers", "1"]) == 0
    data = json.loads((run_dir / "reports" / "aggregate.json").read_text("utf-8"))
    assert data["smiles_validity_pct"] == 0.0
    assert data["mts_topk_mean"] == 0.0
    assert data["mces_topk_mean"] == 1.0


def test_pipeline_is_deterministic(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    _run_pipeline(run_a)
    _run_pipeline(run_b)
    for name in ("per_spectrum.csv", "aggregate.csv", "aggregate.json", "per_bin.csv", "cot_audit.csv"):
        assert (run_a / "reports" / name).read_bytes() == (run_b / "reports" / name).read_bytes()


def test_report_prints_table(tmp_path, capsys):
    run_dir = tmp_path / "run"
    args = ["--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test"]
    assert main(["run", *args, "--provider", f"mock:{TRANSCRIPTS}"]) == 0
    capsys.readouterr()
    assert main(["report", *args, "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "Think Rate (%)" in out
    assert "Tanimoto Top-10" in out
    assert "MCES truncated (%)" in out


def test_k_only_affects_topk_columns(tmp_path):
    run_dir = tmp_path / "run"
    base = ["--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test"]
    assert main(["run", *base, "--provider", f"mock:{TRANSCRIPTS}"]) == 0
    assert main(["evaluate", *base, "--workers", "1", "--k", "1"]) == 0
    k1 = json.loads((run_dir / "reports" / "aggregate.json").read_text("utf-8"))
    assert main(["evaluate", *base, "--workers", "1", "--k", "10"]) == 0
    k10 = json.loads((run_dir / "reports" / "aggregate.json").read_text("utf-8"))
    for field in ("exact_top1_pct", "mts_top1_mean", "mces_top1_mean", "smiles_validity_pct"):
        assert k1[field] == k10[field]
    assert k1["exact_topk_pct"] <= k10["exact_topk_pct"]


def test_mces_subcommand(capsys):
    assert main(["mces", "CCO", "CCO"]) == 0
    out = capsys.readouterr().out
    assert "dissimilarity: 0.000000" in out
    assert main(["mces", "CCO", "CCC"]) == 0
    assert "dissimilarity: 0.500000" in capsys.readouterr().out
    assert main(["mces", "CC(C)(C)c1ccc(C(=O)c2ccc(C(C)(C)C)cc2)cc1", "CCCCCCCCCc1ccc(O)cc1"]) == 0
    out = capsys.readouterr().out
    assert "common_edges: 13\n" in out and "optimal: true\n" in out and "nodes: 4023\n" in out


def test_mces_subcommand_rejects_bad_smiles(capsys):
    assert main(["mces", "C1CC", "CCO"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "bench.conf"
    config.write_text(
        f"dataset = {FIXTURE}\nrun_dir = {tmp_path / 'from-file'}\nsplit = test\nk = 3\n",
        encoding="utf-8",
    )
    run_dir = tmp_path / "from-flag"
    assert main(["run", "--config", str(config), "--run-dir", str(run_dir),
                 "--provider", f"mock:{TRANSCRIPTS}"]) == 0
    assert (run_dir / "transcripts").is_dir()
    assert not (tmp_path / "from-file").exists()


def test_custom_template_path(tmp_path):
    template = tmp_path / "tpl.txt"
    template.write_text(
        "Spectrum <mzs> / <intensities> for <formula> on <instrument> "
        "(<adduct>, <collision_energy> eV). Answer in <answer> tags.",
        encoding="utf-8",
    )
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test",
                 "--template", str(template), "--provider", f"mock:{TRANSCRIPTS}"]) == 0
    assert (run_dir / "transcripts" / "amine-001.txt").exists()


def test_missing_api_key_is_provider_error(tmp_path, monkeypatch):
    monkeypatch.delenv("NO_SUCH_KEY_VAR", raising=False)
    code = main(["run", "--dataset", FIXTURE, "--run-dir", str(tmp_path / "run"),
                 "--split", "test", "--provider", "http", "--api-key-env", "NO_SUCH_KEY_VAR",
                 "--endpoint", "https://example.invalid/v1", "--model", "m"])
    assert code == 3


def test_unknown_provider_is_usage_error(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", FIXTURE, "--run-dir", str(run_dir), "--provider", "carrier-pigeon"]) == 2
    assert not run_dir.exists()


def test_missing_dataset_is_usage_error():
    assert main(["ingest"]) == 2


def _config_of(monkeypatch, argv):
    """The RunConfig that ``main(argv)`` hands to ``ingest``."""
    seen = []
    monkeypatch.setattr(cli, "cmd_ingest", lambda config: seen.append(config) or 0)
    assert main(argv) == 0
    return seen[0]


def _setting_values(key):
    """A config-file value and a different flag value for ``key``, both valid."""
    default = getattr(*cli._target(cli.RunConfig(), key))
    if key == "split":
        return "train", "val"
    if isinstance(default, str):
        return "from-file", "from-flag"
    return type(default)(default + 1), type(default)(default + 2)


@pytest.mark.parametrize("key", sorted(cli._SETTINGS))
def test_every_setting_round_trips_through_file_and_flag(tmp_path, monkeypatch, key):
    flag = "--" + key.replace("_", "-")
    default = getattr(*cli._target(cli.RunConfig(), key))
    file_value, flag_value = _setting_values(key)
    config_path = tmp_path / "one.conf"
    config_path.write_text(f"{key} = {file_value}\n", encoding="utf-8")
    base = [] if key == "dataset" else ["--dataset", FIXTURE]

    for argv, expected in (
        (["--config", str(config_path)], file_value),
        ([flag, str(flag_value)], flag_value),
        (["--config", str(config_path), flag, str(flag_value)], flag_value),
    ):
        config = _config_of(monkeypatch, ["ingest", *base, *argv])
        value = getattr(*cli._target(config, key))
        assert value == expected
        assert type(value) is type(default)


def test_run_help_lists_every_setting(capsys):
    assert main(["run", "--help"]) == 0
    out = capsys.readouterr().out
    for key in cli._SETTINGS:
        assert "--" + key.replace("_", "-") in out


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["evaluate", "--k", "x"], ["mces", "CCO"], ["ingest", "--no-such-flag"]])
def test_argparse_usage_errors_return_two(capsys, argv):
    assert main(argv) == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_k_below_one_is_usage_error(tmp_path, capsys, k):
    assert main(["evaluate", "--dataset", FIXTURE, "--run-dir", str(tmp_path), "--k", k]) == 2
    assert "k must be at least 1" in capsys.readouterr().err
    config = tmp_path / "bad.conf"
    config.write_text(f"dataset = {FIXTURE}\nk = {k}\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(config), "--run-dir", str(tmp_path)]) == 2


def test_k_above_the_candidates_a_response_keeps_is_usage_error(tmp_path, capsys):
    assert MAX_CANDIDATES == 32
    assert main(["evaluate", "--dataset", FIXTURE, "--run-dir", str(tmp_path), "--k", "33"]) == 2
    assert "k must be at most 32" in capsys.readouterr().err
    config = tmp_path / "bad.conf"
    config.write_text(f"dataset = {FIXTURE}\nk = 33\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(config), "--run-dir", str(tmp_path)]) == 2
    assert "k must be at most 32" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["-1", "-2"])
def test_negative_workers_is_usage_error(tmp_path, capsys, workers):
    assert main(["evaluate", "--dataset", FIXTURE, "--run-dir", str(tmp_path), "--workers", workers]) == 2
    assert "workers must be at least 0" in capsys.readouterr().err
    config = tmp_path / "bad.conf"
    config.write_text(f"dataset = {FIXTURE}\nworkers = {workers}\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(config), "--run-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "key, value, message",
    [("parallelism", "0", "parallelism must be at least 1"), ("max_retries", "-1", "max_retries must be at least 0")],
)
def test_bad_request_settings_are_usage_errors_that_leave_the_run_directory_alone(tmp_path, capsys, key, value, message):
    run_dir = tmp_path / "run"
    _run_pipeline(run_dir)

    def contents():
        return {p: p.read_bytes() if p.is_file() else None for p in run_dir.rglob("*")}

    before = contents()
    config = tmp_path / "bad.conf"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    args = ["--dataset", FIXTURE, "--run-dir", str(run_dir), "--split", "test", "--provider", f"mock:{TRANSCRIPTS}"]
    for extra in (["--" + key.replace("_", "-"), value], ["--config", str(config)]):
        assert main(["run", *args, *extra]) == 2, extra
        assert message in capsys.readouterr().err, extra
    assert contents() == before


def test_default_workers_follow_the_usable_cpus_not_parallelism(tmp_path, monkeypatch):
    args = ["--dataset", FIXTURE, "--run-dir", str(tmp_path), "--split", "test"]
    assert main(["run", *args, "--provider", f"mock:{TRANSCRIPTS}"]) == 0
    seen = []
    real = cli.evaluate_records
    monkeypatch.setattr(cli, "evaluate_records", lambda *a, workers, **kw: seen.append(workers) or real(*a, workers=1, **kw))
    monkeypatch.setattr(cli, "usable_cpu_count", lambda: 5)
    assert main(["evaluate", *args, "--parallelism", "32"]) == 0
    assert main(["evaluate", *args, "--parallelism", "32", "--workers", "3"]) == 0
    assert seen == [5, 3]


@pytest.mark.parametrize("budget", ["nan", "0", "-1", "0.5", "1.0"])
def test_bad_mces_budget_is_usage_error(tmp_path, capsys, budget):
    config = tmp_path / "bad.conf"
    config.write_text(f"dataset = {FIXTURE}\nmces_budget = {budget}\n", encoding="utf-8")
    for argv in (
        ["evaluate", "--dataset", FIXTURE, "--run-dir", str(tmp_path), "--mces-budget", budget],
        ["evaluate", "--config", str(config), "--run-dir", str(tmp_path)],
        ["mces", "CCOC(=O)C", "CCOC(=O)CC", "--mces-budget", budget],
    ):
        assert main(argv) == 2, argv
        assert "count of search nodes" in capsys.readouterr().err, argv


def test_truncated_mces_output_does_not_depend_on_the_hash_seed():
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "ms2smiles.cli", "mces", "CC(C)(C)c1ccc(C(=O)c2ccc(C(C)(C)C)cc2)cc1",
             "CCCCCCCCCc1ccc(O)cc1", "--mces-budget", "768"],
            capture_output=True, text=True, check=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "optimal: false\nnodes: 768\n" in outputs[0]


def test_unknown_split_is_usage_error(tmp_path, capsys):
    assert main(["run", "--dataset", FIXTURE, "--split", "foo",
                 "--provider", f"mock:{TRANSCRIPTS}", "--run-dir", str(tmp_path / "a")]) == 2
    assert "split must be one of" in capsys.readouterr().err
    config = tmp_path / "bad.conf"
    config.write_text(f"dataset = {FIXTURE}\nsplit = foo\n", encoding="utf-8")
    assert main(["run", "--config", str(config), "--provider", f"mock:{TRANSCRIPTS}",
                 "--run-dir", str(tmp_path / "b")]) == 2
    assert "split must be one of" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_bad_config_value_names_file_line_and_key(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text(f"dataset = {FIXTURE}\n# comment\ntemperature = warm\n", encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{config}:3: temperature" in err
    assert "'warm'" in err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.cfg"
    assert main(["ingest", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert f"error: {missing}: no such config file" in err
    assert "Traceback" not in err
