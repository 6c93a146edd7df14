from __future__ import annotations

import threading
import time

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


def test_success_persists_transcript(config, cache):
    provider, calls = make_provider([FakeResponse(200, _ok_body("the answer"))])
    outcome = complete("p", config, cache, provider, record_id="r1", sleep=lambda s: None)
    assert outcome.status == "ok"
    assert outcome.transcript == "the answer"
    assert outcome.attempts == 1
    assert not outcome.cached
    assert cache.get(cache_key("p", config)) == "the answer"
    # single-message, user-role wire format
    assert calls[0]["json"]["messages"] == [{"role": "user", "content": "p"}]


def test_cache_hit_makes_no_network_calls(config, cache):
    provider, calls = make_provider([FakeResponse(200, _ok_body("cached text"))])
    complete("p", config, cache, provider, sleep=lambda s: None)
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
    complete("p", config, cache, provider, sleep=lambda s: None)
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
        cache.put(cache_key(f"prompt {i}", config), f"text {i}", config.model_name, 1)

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


def test_api_key_never_written_to_disk(config, cache, tmp_path):
    provider, _ = make_provider([FakeResponse(200, _ok_body("clean"))])
    complete("super secret prompt", config, cache, provider, sleep=lambda s: None)
    for path in (tmp_path / "cache").rglob("*"):
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
