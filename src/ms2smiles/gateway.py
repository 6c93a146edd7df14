"""Provider-agnostic chat-completion client with caching and retry.

One transcript file per cache key under ``<run_dir>/cache``, and nothing
else: no metadata sidecar (attempts go to ``batch_log.tsv``, and the model
is part of the key).  The cache lists its directory once, when it is
opened, and keeps the names in memory: what counts as cached is the files
present then plus its own writes, so a transcript that another process
caches mid-run is fetched again.  ``complete`` only reads the cache, and a
miss costs no filesystem call; ``run_batch`` writes each fetched transcript,
and hands each outcome to its ``deliver`` callback, from the thread that
called it, so request threads never wait on the disk.  Writes are atomic
(temp file + rename) so concurrent writers of the same key converge.  The
API key is read from the environment at request time and never written to
config, cache, or logs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .protocol import PromptInstance

RETRYABLE_STATUSES = frozenset({408, 429, 500, 502, 503, 504})

STATUS_OK = "ok"
STATUS_HTTP_ERROR = "http_error"
STATUS_TIMEOUT = "timeout"
STATUS_RATE_LIMITED = "rate_limited_exhausted"
STATUS_TRANSPORT_ERROR = "transport_error"

PROGRESS_EVERY = 100  # run_batch logs "completed n/N" after every this many outcomes


class MissingApiKey(RuntimeError):
    pass


class _Failure(Exception):
    """A failed request: its ``batch_log.tsv`` status, and whether to retry it."""

    def __init__(self, status: str, detail: str, retry: bool):
        super().__init__(detail)
        self.status = status
        self.retry = retry


@dataclass
class ProviderConfig:
    """Connection and sampling settings; the key itself stays in the env."""

    endpoint_url: str = ""
    model_name: str = "mock"
    api_key_env: str = "MS2SMILES_API_KEY"
    temperature: float = 0.0
    max_tokens: int = 2048
    request_timeout: float = 60.0
    max_retries: int = 3
    parallelism: int = 4
    retry_base_delay: float = 1.0


@dataclass(frozen=True)
class CompletionOutcome:
    record_id: str
    status: str
    transcript: str = ""
    attempts: int = 0
    cached: bool = False


def cache_key(prompt: str, config: ProviderConfig) -> str:
    """Stable digest of the prompt, model name, temperature and token limit; the
    endpoint URL is left out, so compare providers in separate run directories."""
    payload = json.dumps(
        [prompt, config.model_name, config.temperature, config.max_tokens],
        ensure_ascii=False,
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TranscriptCache:
    """Filesystem cache: one ``<key>.txt`` transcript per digest.

    The directory is listed once, at construction; ``put`` adds to that
    index and ``get`` answers a key outside it without touching the disk.
    So the cached keys are the files present when the cache was opened plus
    its own writes; a file another process writes later is not seen, and a
    file deleted since the scan reads as a miss.  Sidecar files that older
    versions wrote beside a transcript are never read, so their caches
    resume as before.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._keys = {name[:-4] for name in os.listdir(self.directory) if name.endswith(".txt")}

    def get(self, key: str) -> str | None:
        if key not in self._keys:
            return None
        try:
            return (self.directory / f"{key}.txt").read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def put(self, key: str, transcript: str) -> None:
        path = self.directory / f"{key}.txt"
        tmp = path.with_suffix(f".txt.tmp{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(transcript, encoding="utf-8")
        os.replace(tmp, path)
        self._keys.add(key)


class HttpChatProvider:
    """Chat-completions HTTP transport; ``post`` stands in for ``requests.post``.

    ``requests`` is imported on first use, not with the package: most
    commands never make a request.  ``requests.post`` is read at construction.
    """

    def __init__(self, post: Callable | None = None):
        if post is None:
            import requests

            post = requests.post
        self._post = post

    def fetch(self, prompt: str, config: ProviderConfig, record_id: str) -> str:
        api_key = os.environ.get(config.api_key_env)
        if not api_key:
            raise MissingApiKey(f"environment variable {config.api_key_env} is not set")
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        import requests

        try:
            response = self._post(
                config.endpoint_url,
                json={
                    "model": config.model_name,
                    "messages": [{"role": "user", "content": prompt}],
                    "temperature": config.temperature,
                    "max_tokens": config.max_tokens,
                },
                headers=headers,
                timeout=config.request_timeout,
            )
        except requests.Timeout as exc:
            raise _Failure(STATUS_TIMEOUT, str(exc), retry=True) from exc
        except requests.RequestException as exc:
            raise _Failure(STATUS_TRANSPORT_ERROR, str(exc), retry=True) from exc
        status_code = response.status_code
        if status_code in RETRYABLE_STATUSES:
            kind = STATUS_RATE_LIMITED if status_code == 429 else STATUS_HTTP_ERROR
            raise _Failure(kind, f"HTTP {status_code}", retry=True)
        if status_code != 200:
            raise _Failure(STATUS_HTTP_ERROR, f"HTTP {status_code}", retry=False)
        try:
            text = response.json()["choices"][0]["message"]["content"]
        except Exception as exc:
            raise _Failure(STATUS_HTTP_ERROR, f"malformed response body: {exc}", retry=False) from exc
        if not text:
            raise _Failure(STATUS_HTTP_ERROR, "empty completion", retry=False)
        return text


class MockProvider:
    """Replays transcripts from ``<directory>/<record_id>.txt``."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def fetch(self, prompt: str, config: ProviderConfig, record_id: str) -> str:
        try:
            text = (self.directory / f"{record_id}.txt").read_text(encoding="utf-8")
        except FileNotFoundError:
            raise _Failure(STATUS_TRANSPORT_ERROR, f"no mock transcript for {record_id}", retry=False) from None
        if not text:
            raise _Failure(STATUS_HTTP_ERROR, f"empty mock transcript for {record_id}", retry=False)
        return text


def complete(
    prompt: str,
    config: ProviderConfig,
    cache: TranscriptCache,
    provider,
    record_id: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> CompletionOutcome:
    """Cache-first completion with exponential backoff on retryable failures.

    A fetched transcript is returned, not cached: ``run_batch`` stores it.
    """
    hit = cache.get(cache_key(prompt, config))
    if hit is not None:
        return CompletionOutcome(record_id=record_id, status=STATUS_OK, transcript=hit, attempts=0, cached=True)

    attempts = 0
    last_status = STATUS_TRANSPORT_ERROR
    while attempts <= config.max_retries:
        attempts += 1
        try:
            text = provider.fetch(prompt, config, record_id)
        except _Failure as exc:
            if not exc.retry:
                return CompletionOutcome(record_id=record_id, status=exc.status, attempts=attempts)
            last_status = exc.status
            if attempts > config.max_retries:
                break
            delay = min(config.retry_base_delay * (2 ** (attempts - 1)), 30.0)
            sleep(random.uniform(0, delay))
            continue
        return CompletionOutcome(record_id=record_id, status=STATUS_OK, transcript=text, attempts=attempts)
    return CompletionOutcome(record_id=record_id, status=last_status, attempts=attempts)


def run_batch(
    instances: Sequence[PromptInstance],
    config: ProviderConfig,
    cache: TranscriptCache,
    provider,
    sleep: Callable[[float], None] = time.sleep,
    log: Callable[[str], None] | None = None,
    deliver: Callable[[CompletionOutcome], None] | None = None,
) -> list[CompletionOutcome]:
    """Complete every prompt, preserving input order.

    At most ``config.parallelism`` requests are in flight; cached records
    cause no network traffic.  The calling thread caches each fetched
    transcript as its request completes, then passes the outcome, cached or
    not, to ``deliver``, while the request threads go on to their next
    prompts.  Outcomes are delivered once each, in completion order.  If a
    request raises, no request queued behind it starts; if the batch is
    interrupted, the queued requests are cancelled.  Either way every
    transcript already fetched is cached and delivered before the exception
    propagates, so the batch resumes where it stopped.
    Parallelism 1 runs inline on the calling thread and starts no thread.
    """
    if config.parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    emit = log or (lambda line: print(line, file=sys.stderr))
    outcomes: list[CompletionOutcome | None] = [None] * len(instances)
    done = 0

    def request(instance: PromptInstance) -> CompletionOutcome:
        return complete(instance.text, config, cache, provider, record_id=instance.record_id, sleep=sleep)

    def finish(index: int, outcome: CompletionOutcome) -> None:
        nonlocal done
        if outcome.status == STATUS_OK and not outcome.cached:
            cache.put(cache_key(instances[index].text, config), outcome.transcript)
        outcomes[index] = outcome  # first: if ``deliver`` raises, the cleanup below skips it
        if deliver is not None:
            deliver(outcome)
        done += 1
        if done % PROGRESS_EVERY == 0:
            emit(f"completed {done}/{len(instances)}")

    if config.parallelism == 1:
        for index, instance in enumerate(instances):
            finish(index, request(instance))
        return outcomes

    lock = threading.Lock()
    last = len(instances) - 1  # no request after this index starts

    def guarded(index: int) -> CompletionOutcome | None:
        nonlocal last
        if index > last:  # queued behind a request that raised
            return None
        try:
            return request(instances[index])
        except BaseException:
            with lock:  # before this worker takes the next queued request
                last = min(last, index)
            raise

    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        futures = {pool.submit(guarded, index): index for index in range(len(instances))}
        try:
            for future in as_completed(futures):
                if (outcome := future.result()) is not None:  # None: did not start
                    finish(futures[future], outcome)
        except BaseException:
            pool.shutdown(cancel_futures=True)  # waits for the requests in flight
            for future, index in futures.items():
                fetched = not future.cancelled() and future.exception() is None
                if fetched and outcomes[index] is None and future.result() is not None:
                    finish(index, future.result())
            raise
    return outcomes
