from __future__ import annotations

import builtins
import io
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from ms2smiles.gateway import (
    HttpChatProvider,
    MissingApiKey,
    MockProvider,
    ProviderConfig,
    TranscriptCache,
    cache_key,
    complete,
    run_batch,
)
from ms2smiles.protocol import PromptInstance


class FakeResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body or {}

    def json(self):
        return self._body


def _ok_body(text="hello"):
    return {"choices": [{"message": {"content": text}}]}


def make_provider(script):
    """HttpChatProvider whose POSTs pop canned responses from ``script``."""
    calls = []

    def post(url, json=None, headers=None, timeout=None):
        calls.append({"url": url, "json": json, "headers": headers})
        action = script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action

    provider = HttpChatProvider(post=post)
    return provider, calls


@pytest.fixture
def config(tmp_path, monkeypatch):
    monkeypatch.setenv("TEST_GW_KEY", "sk-secret-123")
    return ProviderConfig(
        endpoint_url="https://example.invalid/v1/chat/completions",
        model_name="test-model",
        api_key_env="TEST_GW_KEY",
        max_retries=3,
        retry_base_delay=0.0,
    )


@pytest.fixture
def cache(tmp_path):
    return TranscriptCache(tmp_path / "cache")


def test_cache_key_determinism(config):
    assert cache_key("prompt", config) == cache_key("prompt", config)
    assert cache_key("prompt", config) != cache_key("prompt!", config)
    warm = ProviderConfig(model_name="test-model", temperature=0.7)
    cold = ProviderConfig(model_name="test-model", temperature=0.0)
    assert cache_key("prompt", warm) != cache_key("prompt", cold)


def _batch(config, cache, provider, *prompts):
    """``run_batch`` over ``prompts``, whose record ids are r0, r1, ..."""
    instances = [PromptInstance(record_id=f"r{i}", text=p, template_version="v") for i, p in enumerate(prompts)]
    return run_batch(instances, config, cache, provider, sleep=lambda s: None, log=lambda s: None)


def test_success_persists_transcript(config, cache):
    provider, calls = make_provider([FakeResponse(200, _ok_body("the answer"))])
    (outcome,) = _batch(config, cache, provider, "p")
    assert outcome.status == "ok"
    assert outcome.transcript == "the answer"
    assert outcome.attempts == 1
    assert not outcome.cached
    assert cache.get(cache_key("p", config)) == "the answer"
    # single-message, user-role wire format
    assert calls[0]["json"]["messages"] == [{"role": "user", "content": "p"}]


def test_cache_hit_makes_no_network_calls(config, cache):
    provider, calls = make_provider([FakeResponse(200, _ok_body("cached text"))])
    _batch(config, cache, provider, "p")
    outcome = complete("p", config, cache, provider, sleep=lambda s: None)
    assert outcome.cached
    assert outcome.status == "ok"
    assert outcome.attempts == 0
    assert outcome.transcript == "cached text"
    assert len(calls) == 1


def test_retry_on_429_then_success(config, cache):
    provider, calls = make_provider([FakeResponse(429), FakeResponse(200, _ok_body())])
    outcome = complete("p", config, cache, provider, sleep=lambda s: None)
    assert outcome.status == "ok"
    assert outcome.attempts == 2
    assert len(calls) == 2


def test_persistent_500_exhausts_retries(config, cache):
    provider, _ = make_provider([FakeResponse(500)] * 10)
    outcome = complete("p", config, cache, provider, sleep=lambda s: None)
    assert outcome.status == "http_error"
    assert outcome.attempts == config.max_retries + 1


def test_persistent_429_reports_rate_limit(config, cache):
    provider, _ = make_provider([FakeResponse(429)] * 10)
    outcome = complete("p", config, cache, provider, sleep=lambda s: None)
    assert outcome.status == "rate_limited_exhausted"


def test_timeout_status(config, cache):
    import requests

    provider, _ = make_provider([requests.Timeout("too slow")] * 10)
    outcome = complete("p", config, cache, provider, sleep=lambda s: None)
    assert outcome.status == "timeout"
    assert outcome.attempts == config.max_retries + 1


def test_fatal_400_no_retry(config, cache):
    provider, calls = make_provider([FakeResponse(400)])
    outcome = complete("p", config, cache, provider, sleep=lambda s: None)
    assert outcome.status == "http_error"
    assert outcome.attempts == 1
    assert len(calls) == 1


def test_empty_completion_is_an_error(config, cache):
    provider, _ = make_provider([FakeResponse(200, _ok_body(""))])
    outcome = complete("p", config, cache, provider, sleep=lambda s: None)
    assert outcome.status == "http_error"
    assert outcome.transcript == ""


def test_missing_api_key(cache, monkeypatch):
    monkeypatch.delenv("NOPE_KEY", raising=False)
    config = ProviderConfig(api_key_env="NOPE_KEY")
    provider = HttpChatProvider(post=lambda *a, **k: FakeResponse(200, _ok_body()))
    with pytest.raises(MissingApiKey):
        complete("p", config, cache, provider, sleep=lambda s: None)


def test_cached_entry_needs_no_api_key(cache, monkeypatch, config):
    provider, _ = make_provider([FakeResponse(200, _ok_body("kept"))])
    _batch(config, cache, provider, "p")
    monkeypatch.delenv("TEST_GW_KEY")
    outcome = complete("p", config, cache, HttpChatProvider(post=None), sleep=lambda s: None)
    assert outcome.cached and outcome.transcript == "kept"


def _instances(n):
    return [PromptInstance(record_id=f"r{i}", text=f"prompt {i}", template_version="v") for i in range(n)]


def test_batch_preserves_order_and_skips_cached(config, cache):
    instances = _instances(10)
    responses = {f"prompt {i}": f"text {i}" for i in range(10)}
    network_calls = []

    class Provider:
        def fetch(self, prompt, cfg, record_id):
            network_calls.append(record_id)
            return responses[prompt]

    for i in (1, 4, 7):
        cache.put(cache_key(f"prompt {i}", config), f"text {i}")

    outcomes = run_batch(instances, config, cache, Provider(), sleep=lambda s: None, log=lambda s: None)
    assert [o.record_id for o in outcomes] == [f"r{i}" for i in range(10)]
    assert all(o.status == "ok" for o in outcomes)
    assert len(network_calls) == 7
    assert [o.cached for o in outcomes] == [i in (1, 4, 7) for i in range(10)]


def test_batch_bounded_concurrency(config, cache):
    lock = threading.Lock()
    in_flight = 0
    peak = 0

    class Provider:
        def fetch(self, prompt, cfg, record_id):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            time.sleep(0.02)
            with lock:
                in_flight -= 1
            return "text"

    config.parallelism = 3
    run_batch(_instances(12), config, cache, Provider(), sleep=lambda s: None, log=lambda s: None)
    assert peak <= 3
    assert peak >= 2  # it did actually run concurrently


def test_batch_sequential_when_parallelism_one(config, cache):
    order = []

    class Provider:
        def fetch(self, prompt, cfg, record_id):
            order.append(record_id)
            return "text"

    config.parallelism = 1
    run_batch(_instances(5), config, cache, Provider(), sleep=lambda s: None, log=lambda s: None)
    assert order == [f"r{i}" for i in range(5)]


def test_batch_resumes_after_crash(config, cache):
    class FlakyProvider:
        def __init__(self):
            self.fail_r3 = True

        def fetch(self, prompt, cfg, record_id):
            if record_id == "r3" and self.fail_r3:
                raise RuntimeError("crash")
            return f"text {record_id}"

    provider = FlakyProvider()
    instances = _instances(6)
    with pytest.raises(RuntimeError):
        run_batch(instances, config, cache, provider, sleep=lambda s: None, log=lambda s: None)
    provider.fail_r3 = False
    outcomes = run_batch(instances, config, cache, provider, sleep=lambda s: None, log=lambda s: None)
    assert all(o.status == "ok" for o in outcomes)
    cached_ids = {o.record_id for o in outcomes if o.cached}
    # everything that finished before the crash resumes from cache
    assert {"r0", "r1", "r2"} <= cached_ids
    assert "r3" not in cached_ids


def test_old_cache_with_sidecars_resumes_and_a_batch_writes_one_file_per_transcript(config, cache):
    for i in (0, 2):  # the layout of older versions: transcript plus a metadata sidecar
        key = cache_key(f"prompt {i}", config)
        cache.put(key, f"text {i}")
        (cache.directory / f"{key}.meta").write_text('{"model": "test-model", "attempts": 1}\n', encoding="utf-8")
    old_files = set(cache.directory.iterdir())
    network_calls = []

    class Provider:
        def fetch(self, prompt, cfg, record_id):
            network_calls.append(record_id)
            return f"text {record_id[1:]}"

    config.parallelism = 2
    outcomes = run_batch(_instances(5), config, cache, Provider(), sleep=lambda s: None, log=lambda s: None)
    assert sorted(network_calls) == ["r1", "r3", "r4"]
    assert [o.transcript for o in outcomes] == [f"text {i}" for i in range(5)]
    assert [o.cached for o in outcomes] == [True, False, True, False, False]
    new_files = sorted(p.name for p in set(cache.directory.iterdir()) - old_files)
    assert new_files == sorted(f"{cache_key(f'prompt {i}', config)}.txt" for i in (1, 3, 4))


class _Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which ``except Exception`` does not catch."""


def test_interrupt_mid_batch_keeps_fetched_transcripts_and_starts_no_queued_request(config, cache):
    raised = threading.Event()
    network_calls = []

    class Provider:
        def fetch(self, prompt, cfg, record_id):
            network_calls.append(record_id)
            if record_id == "r1":
                raised.set()
                raise _Interrupt
            if record_id == "r0":  # still in flight when r1 raises; returns after
                assert raised.wait(timeout=5)
                time.sleep(0.2)
            return f"text {record_id}"

    config.parallelism = 2
    instances = _instances(8)
    with pytest.raises(_Interrupt):
        run_batch(instances, config, cache, Provider(), sleep=lambda s: None, log=lambda s: None)
    assert sorted(network_calls) == ["r0", "r1"]
    assert cache.get(cache_key("prompt 0", config)) == "text r0"
    assert [p.name for p in cache.directory.iterdir()] == [f"{cache_key('prompt 0', config)}.txt"]


def test_crash_under_fast_thread_switching_caches_every_fetched_transcript(config, cache):
    fetched = []

    class Provider:
        def fetch(self, prompt, cfg, record_id):
            if record_id == "r40":
                raise RuntimeError("crash")
            fetched.append(record_id)
            return f"text {record_id}"

    config.parallelism = 8  # more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(RuntimeError):
            run_batch(_instances(100), config, cache, Provider(), sleep=lambda s: None, log=lambda s: None)
    finally:
        sys.setswitchinterval(interval)
    assert {f"r{i}" for i in range(40)} <= set(fetched)  # queued ahead of the crash: all ran
    cached = sorted(p.name for p in cache.directory.iterdir())
    assert cached == sorted(f"{cache_key(f'prompt {r[1:]}', config)}.txt" for r in fetched)


def test_cache_writes_run_on_the_calling_thread(config, cache, monkeypatch):
    writers = []
    request_threads = set()
    put = TranscriptCache.put

    def recording_put(self, key, transcript):
        writers.append(threading.get_ident())
        put(self, key, transcript)

    class Provider:
        def fetch(self, prompt, cfg, record_id):
            request_threads.add(threading.get_ident())
            time.sleep(0.005)
            return f"text {record_id}"

    monkeypatch.setattr(TranscriptCache, "put", recording_put)
    config.parallelism = 3
    outcomes = run_batch(_instances(12), config, cache, Provider(), sleep=lambda s: None, log=lambda s: None)
    assert all(o.status == "ok" for o in outcomes)
    assert writers == [threading.get_ident()] * 12
    assert threading.get_ident() not in request_threads
    assert sorted(p.suffix for p in cache.directory.iterdir()) == [".txt"] * 12


def test_a_cold_cache_batch_touches_no_cache_path_from_a_request_thread(config, cache, monkeypatch):
    root = str(cache.directory)
    touches = []  # (thread, call) of every open, stat, listing or read under the cache directory

    def recording(name, fn):
        def inner(path, *args, **kwargs):
            if isinstance(path, (str, os.PathLike)) and str(os.fspath(path)).startswith(root):
                touches.append((threading.get_ident(), name))
            return fn(path, *args, **kwargs)

        return inner

    for module, name in ((os, "stat"), (os, "lstat"), (os, "open"), (os, "listdir"), (os, "scandir"),
                         (io, "open"), (builtins, "open")):
        monkeypatch.setattr(module, name, recording(f"{module.__name__}.{name}", getattr(module, name)))
    for name in ("open", "stat", "read_text", "read_bytes"):
        monkeypatch.setattr(Path, name, recording(f"Path.{name}", getattr(Path, name)))
    request_threads = set()

    class Provider:
        def fetch(self, prompt, cfg, record_id):
            request_threads.add(threading.get_ident())
            time.sleep(0.002)
            return f"text {record_id}"

    config.parallelism = 3
    outcomes = run_batch(_instances(12), config, cache, Provider(), sleep=lambda s: None, log=lambda s: None)
    assert [o.cached for o in outcomes] == [False] * 12
    assert request_threads and threading.get_ident() not in request_threads
    assert [touch for touch in touches if touch[0] in request_threads] == []
    assert {thread for thread, _ in touches} == {threading.get_ident()}  # the puts were seen


def test_a_file_present_when_the_cache_opens_is_a_hit(config, tmp_path):
    directory = tmp_path / "warm"
    directory.mkdir()
    (directory / f"{cache_key('before', config)}.txt").write_text("kept", encoding="utf-8")
    cache = TranscriptCache(directory)
    (directory / f"{cache_key('after', config)}.txt").write_text("not seen", encoding="utf-8")
    provider, calls = make_provider([FakeResponse(200, _ok_body("fetched"))])
    hit = complete("before", config, cache, provider, sleep=lambda s: None)
    assert hit.cached and hit.transcript == "kept"
    late = complete("after", config, cache, provider, sleep=lambda s: None)  # written by someone else
    assert not late.cached and late.transcript == "fetched"
    assert len(calls) == 1


def test_a_repeated_prompt_hits_the_put_of_its_first_copy(config, cache):
    config.parallelism = 1
    provider, calls = make_provider([FakeResponse(200, _ok_body("once"))])
    outcomes = _batch(config, cache, provider, "same", "same")
    assert [(o.transcript, o.cached) for o in outcomes] == [("once", False), ("once", True)]
    assert len(calls) == 1


def test_a_file_deleted_after_the_scan_is_fetched_again(config, tmp_path):
    key = cache_key("p", config)
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / f"{key}.txt").write_text("old", encoding="utf-8")
    cache = TranscriptCache(tmp_path / "cache")
    (cache.directory / f"{key}.txt").unlink()
    provider, calls = make_provider([FakeResponse(200, _ok_body("new"))])
    [outcome] = _batch(config, cache, provider, "p")
    assert not outcome.cached and outcome.transcript == "new"
    assert len(calls) == 1
    assert cache.get(key) == "new"


def test_batch_delivers_every_outcome_on_the_calling_thread_after_its_put(config, cache, tmp_path):
    replies = tmp_path / "replies"
    replies.mkdir()
    for i in (0, 1, 3, 5):  # r2 is cached; r4 has no reply and fails
        (replies / f"r{i}.txt").write_text(f"text r{i}", encoding="utf-8")
    cache.put(cache_key("prompt 2", config), "text r2")
    delivered = []

    def deliver(outcome):
        key = cache_key(f"prompt {outcome.record_id[1:]}", config)
        delivered.append((threading.get_ident(), outcome.record_id, cache.get(key) == outcome.transcript))

    config.parallelism = 3
    run_batch(_instances(6), config, cache, MockProvider(replies), sleep=lambda s: None, log=lambda s: None,
              deliver=deliver)
    assert sorted(delivered) == [(threading.get_ident(), f"r{i}", i != 4) for i in range(6)]


def test_api_key_never_written_to_disk(config, cache, tmp_path):
    provider, _ = make_provider([FakeResponse(200, _ok_body("clean"))])
    _batch(config, cache, provider, "super secret prompt")
    written = list((tmp_path / "cache").rglob("*"))
    assert written  # the transcript was written, so the check below reads a file
    for path in written:
        assert "sk-secret-123" not in path.read_text(encoding="utf-8")


def test_mock_provider(config, tmp_path, cache):
    mock_dir = tmp_path / "mock"
    mock_dir.mkdir()
    (mock_dir / "r0.txt").write_text("mock transcript", encoding="utf-8")
    provider = MockProvider(mock_dir)
    ok = complete("p0", config, cache, provider, record_id="r0", sleep=lambda s: None)
    assert ok.status == "ok" and ok.transcript == "mock transcript"
    missing = complete("p1", config, cache, provider, record_id="r-missing", sleep=lambda s: None)
    assert missing.status == "transport_error"
    (mock_dir / "r-empty.txt").write_text("", encoding="utf-8")
    empty = complete("p2", config, cache, provider, record_id="r-empty", sleep=lambda s: None)
    assert empty.status == "http_error" and empty.attempts == 1


def test_outcome_invariants(config, cache):
    provider, _ = make_provider([FakeResponse(200, _ok_body("x"))] + [FakeResponse(500)] * 10)
    good = complete("a", config, cache, provider, sleep=lambda s: None)
    bad = complete("b", config, cache, provider, sleep=lambda s: None)
    for outcome in (good, bad):
        assert (outcome.status == "ok") == bool(outcome.transcript)
        assert outcome.attempts <= config.max_retries + 1


def test_importing_the_cli_does_not_load_requests():
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import ms2smiles.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_default_provider_posts_through_requests_post(config, cache, monkeypatch):
    import requests

    calls = []

    def post(url, json=None, headers=None, timeout=None):
        calls.append(url)
        return FakeResponse(200, _ok_body("patched"))

    monkeypatch.setattr(requests, "post", post)
    outcome = complete("p", config, cache, HttpChatProvider(), sleep=lambda s: None)
    assert outcome.status == "ok" and outcome.transcript == "patched"
    assert calls == [config.endpoint_url]
