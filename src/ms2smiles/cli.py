"""Command-line pipeline: ingest -> run -> evaluate -> report, plus mces.

Exit codes: 0 success, 1 data error, 2 usage or parse error, 3 provider
error (including a ``run`` in which no request succeeded).  Config
precedence is flags > config file > defaults; the config file is plain
``key = value`` lines with ``#`` comments, and every key is also the flag
``--<key>`` with ``_`` written as ``-``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .chem import ChemError, mol_from_smiles
from .dataset import SPLITS, DatasetError, load_dataset
from .evaluate import aggregate, check_k, evaluate_records, table_rows, usable_cpu_count, write_reports
from .gateway import (
    STATUS_OK,
    CompletionOutcome,
    HttpChatProvider,
    MissingApiKey,
    MockProvider,
    ProviderConfig,
    TranscriptCache,
    run_batch,
)
from .protocol import MAX_CANDIDATES, default_template, render_prompt
from .similarity import DEFAULT_MCES_BUDGET, check_budget, mces

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_PROVIDER = 3


@dataclass
class RunConfig:
    dataset_path: str = ""
    template_path: str = ""
    run_dir: str = "runs/default"
    split: str = "test"
    k: int = 10
    mces_budget: int = DEFAULT_MCES_BUDGET
    provider: str = "http"
    workers: int = 0  # 0: one per usable CPU
    http: ProviderConfig = field(default_factory=ProviderConfig)


# Every setting, once: config key -> (RunConfig attribute, with "http." for
# ProviderConfig, flag help).  Each key is also the flag ``--<key>`` with "_"
# as "-"; its type is the type of its default.
_SETTINGS = {
    "dataset": ("dataset_path", "dataset path (TSV or JSONL)"),
    "template": ("template_path", "prompt template path ('': the bundled one)"),
    "run_dir": ("run_dir", "run directory for cache/transcripts/reports"),
    "split": ("split", "fold to process: " + ", ".join(SPLITS)),
    "k": ("k", f"top-k cutoff, 1 to {MAX_CANDIDATES}"),
    "mces_budget": ("mces_budget", "count of search nodes per MCES pair, at least 1"),
    "provider": ("provider", "'http' or 'mock:<dir>'"),
    "workers": ("workers", "evaluation worker processes (0: one per usable CPU)"),
    "model": ("http.model_name", "model name sent to the provider"),
    "endpoint": ("http.endpoint_url", "chat-completions endpoint URL"),
    "api_key_env": ("http.api_key_env", "env var holding the API key"),
    "temperature": ("http.temperature", "sampling temperature"),
    "max_tokens": ("http.max_tokens", "completion token limit"),
    "request_timeout": ("http.request_timeout", "seconds per HTTP request"),
    "max_retries": ("http.max_retries", "retries after a retryable failure"),
    "parallelism": ("http.parallelism", "concurrent provider requests in run"),
    "retry_base_delay": ("http.retry_base_delay", "first backoff delay in seconds"),
}


def _target(config: RunConfig, key: str) -> tuple[object, str]:
    """The object and attribute name that setting ``key`` lives on."""
    attr = _SETTINGS[key][0]
    if attr.startswith("http."):
        return config.http, attr[5:]
    return config, attr


def load_config_file(path: str, config: RunConfig) -> None:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"{path}: no such config file") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            setattr(*_target(config, key), _parse_value(key, value))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None


def _parse_value(key: str, text: str):
    """``text`` as the type of setting ``key``'s default."""
    cast = type(getattr(*_target(RunConfig(), key)))
    try:
        return cast(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{key} expects {cast.__name__} ({_SETTINGS[key][1]}), got {text!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then flags; then the range checks."""
    config = RunConfig()
    if getattr(args, "config", None):
        load_config_file(args.config, config)
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(*_target(config, key), value)
    check_k(config.k)
    check_budget(config.mces_budget)
    if config.workers < 0:
        raise ValueError(f"workers must be at least 0, got {config.workers}")
    if config.http.parallelism < 1:
        raise ValueError(f"parallelism must be at least 1, got {config.http.parallelism}")
    if config.http.max_retries < 0:
        raise ValueError(f"max_retries must be at least 0, got {config.http.max_retries}")
    if config.split not in SPLITS:
        raise ValueError(f"split must be one of {', '.join(SPLITS)}, got {config.split!r}")
    return config


def _make_provider(config: RunConfig):
    if config.provider == "http":
        return HttpChatProvider()
    if config.provider.startswith("mock:"):
        return MockProvider(config.provider[5:])
    raise ValueError(f"unknown provider {config.provider!r} (use 'http' or 'mock:<dir>')")


def _template_text(config: RunConfig) -> str:
    if config.template_path:
        return Path(config.template_path).read_text(encoding="utf-8")
    return default_template()


def cmd_ingest(config: RunConfig) -> int:
    result = load_dataset(config.dataset_path)
    print(result.report_text())
    return EXIT_OK


def cmd_run(config: RunConfig) -> int:
    """Fetch a transcript per record into ``transcripts/``, each written as
    its request completes, then ``batch_log.tsv`` in record order.

    An earlier run's ``batch_log.tsv`` is removed when the batch delivers its
    first outcome, and the new one written only once the batch is whole.  So
    a run that raises after its first outcome leaves none, and ``evaluate``
    refuses its directory, while one that raises before it (a provider that
    cannot run) leaves the earlier run as it was, still scorable.  A failed
    record's transcript is removed, so a finished rerun scores it as empty,
    not by an earlier run's transcript.
    """
    result = load_dataset(config.dataset_path, split=config.split)
    if not result.records:
        print(f"no records in split {config.split!r}", file=sys.stderr)
        return EXIT_DATA
    template = _template_text(config)
    instances = [render_prompt(record, template) for record in result.records]

    run_dir = Path(config.run_dir)
    provider = _make_provider(config)
    cache = TranscriptCache(run_dir / "cache")
    transcripts_dir = run_dir / "transcripts"
    transcripts_dir.mkdir(parents=True, exist_ok=True)
    batch_log = run_dir / "batch_log.tsv"
    stale_log = True  # the earlier run's, until the first outcome

    def deliver(outcome: CompletionOutcome) -> None:
        nonlocal stale_log
        if stale_log:  # written again only once the batch is whole
            batch_log.unlink(missing_ok=True)
            stale_log = False
        path = transcripts_dir / f"{outcome.record_id}.txt"
        if outcome.status == STATUS_OK:
            path.write_text(outcome.transcript, encoding="utf-8")
        else:  # scored as empty, not by an earlier run's transcript
            path.unlink(missing_ok=True)

    outcomes = run_batch(instances, config.http, cache, provider, deliver=deliver)

    ok = 0
    with open(batch_log, "w", encoding="utf-8") as log:
        log.write("record_id\tstatus\tattempts\tcached\n")
        for outcome in outcomes:
            log.write(f"{outcome.record_id}\t{outcome.status}\t{outcome.attempts}\t{int(outcome.cached)}\n")
            ok += outcome.status == STATUS_OK
    print(f"{ok}/{len(outcomes)} transcripts in {transcripts_dir}")
    if ok == 0:
        print("no request succeeded; see batch_log.tsv", file=sys.stderr)
        return EXIT_PROVIDER
    return EXIT_OK


def cmd_evaluate(config: RunConfig, table: bool = False) -> int:
    """Score the transcripts of a finished run; ``table`` prints the
    aggregate table.  A run directory without ``batch_log.tsv`` (never run,
    or interrupted) is refused."""
    result = load_dataset(config.dataset_path, split=config.split)
    if not result.records:
        print(f"no records in split {config.split!r}", file=sys.stderr)
        return EXIT_DATA
    batch_log = Path(config.run_dir) / "batch_log.tsv"
    if not batch_log.is_file():
        print(f"missing {batch_log}: no finished run to score", file=sys.stderr)
        return EXIT_DATA
    transcripts_dir = Path(config.run_dir) / "transcripts"
    transcripts = {}
    for record in result.records:
        try:
            transcripts[record.id] = (transcripts_dir / f"{record.id}.txt").read_text(encoding="utf-8")
        except FileNotFoundError:  # scored as empty
            pass
    metrics, audits = evaluate_records(
        result.records,
        transcripts,
        config.k,
        mces_budget=config.mces_budget,
        workers=config.workers or usable_cpu_count(),
    )
    report = aggregate(metrics, audits, k=config.k)
    write_reports(Path(config.run_dir) / "reports", metrics, audits, report)
    if table:
        rows = table_rows(report)
        width = max(len(label) for label, _ in rows)
        for label, value in rows:
            print(f"{label:<{width}}  {value}")
    else:
        print(f"reports written to {Path(config.run_dir) / 'reports'}")
    return EXIT_OK


def cmd_mces(args: argparse.Namespace) -> int:
    try:
        a = mol_from_smiles(args.smiles_a)
        b = mol_from_smiles(args.smiles_b)
    except ChemError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = mces(a, b, budget=args.mces_budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"common_edges: {result.common_edges}")
    print(f"dissimilarity: {result.dissimilarity:.6f}")
    print(f"optimal: {str(result.optimal).lower()}")
    print(f"nodes: {result.nodes}")
    return EXIT_OK


def _add_flag(parser: argparse.ArgumentParser, key: str, default=None) -> None:
    value = getattr(*_target(RunConfig(), key))
    parser.add_argument(
        "--" + key.replace("_", "-"),
        dest=key,
        type=lambda text: _parse_value(key, text),
        default=default,
        help=f"{_SETTINGS[key][1]} (default: {value!r})",
    )


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    for key in _SETTINGS:
        _add_flag(parser, key)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ms2smiles", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ingest", "run", "evaluate", "report"):
        p = sub.add_parser(name)
        _add_shared_flags(p)
    p_mces = sub.add_parser("mces")
    p_mces.add_argument("smiles_a")
    p_mces.add_argument("smiles_b")
    _add_flag(p_mces, "mces_budget", default=RunConfig.mces_budget)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return exc.code
    if args.command == "mces":
        return cmd_mces(args)

    try:
        config = build_config(args)
        if not config.dataset_path:
            print("a dataset is required (--dataset or config file)", file=sys.stderr)
            return EXIT_USAGE
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "run":
            return cmd_run(config)
        return cmd_evaluate(config, table=args.command == "report")
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MissingApiKey as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
