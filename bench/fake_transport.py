"""Stand-in for ``requests.post`` in the ``run_mixed`` workload.

Every attempt waits a fixed latency, then answers with the status the
workload's failure plan gives for (seed, record id, attempt number), and on
200 returns the record's canned transcript.  Attempts are counted per record
under a lock; a record's attempts are sequential inside one ``complete``
call, so the numbering, and with it every outcome, is independent of how
the threads interleave.
"""

from __future__ import annotations

import threading
import time

from workloads import planned_status

API_KEY = "bench-dummy-key"


class FakeResponse:
    def __init__(self, status_code: int, body: dict):
        self.status_code = status_code
        self._body = body

    def json(self) -> dict:
        return self._body


class FakeChatTransport:
    def __init__(self, seed: int, prompt_ids: dict[str, str], bodies: dict[str, str], plan: dict[str, int], latency_s: float):
        self.seed = seed
        self.prompt_ids = prompt_ids  # rendered prompt -> record id
        self.bodies = bodies
        self.plan = plan
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self.attempts: dict[str, int] = {}

    def reset(self) -> None:
        with self._lock:
            self.attempts.clear()

    def __call__(self, url, json=None, headers=None, timeout=None):
        if headers is None or headers.get("Authorization") != f"Bearer {API_KEY}":
            return FakeResponse(401, {})
        record_id = self.prompt_ids[json["messages"][0]["content"]]
        with self._lock:
            attempt = self.attempts[record_id] = self.attempts.get(record_id, 0) + 1
        time.sleep(self.latency_s)
        status = planned_status(self.seed, record_id, attempt, self.plan.get(record_id, 0))
        if status != 200:
            return FakeResponse(status, {})
        return FakeResponse(200, {"choices": [{"message": {"content": self.bodies[record_id]}}]})
