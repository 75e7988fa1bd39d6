"""Backpressure and chaos: deterministic 429s, crash recovery, ledgers.

The service's executor runs with ``serial_threshold=1`` whenever
``workers >= 2``, so even a lone queued job takes the supervised
parallel path — which is exactly where the chaos hazards (worker kills,
stalls, poisoned jobs) and per-job timeouts live.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.serve.jobs import cache_key, execute_job, parse_job, response_bytes
from repro.serve.server import create_server
from repro.testing.chaos import ChaosPlan


def _emulate_payload(schemes, **extra):
    psdf_xml, psm_xml = schemes
    return {"kind": "emulate", "psdf_xml": psdf_xml, "psm_xml": psm_xml, **extra}


def _label(payload) -> str:
    return parse_job(payload).label


def _swap_transfer(schemes, old, new):
    """The schemes with one PSDF transfer element renamed."""
    psdf_xml, psm_xml = schemes
    broken = psdf_xml.replace(f'name="{old}"', f'name="{new}"')
    assert broken != psdf_xml
    return broken, psm_xml


class TestBackpressure:
    def test_full_queue_sheds_with_deterministic_429(
        self, service_factory, inline_schemes, inline_schemes_1seg
    ):
        service = service_factory(auto_start=False, queue_depth=1)
        queued = service.submit_async(_emulate_payload(inline_schemes))
        assert queued.role == "miss"
        shed = service.submit_async(_emulate_payload(inline_schemes_1seg))
        assert shed.role == "shed"
        assert shed.event.is_set()  # resolved synchronously, never queued
        assert shed.failure_status == 429
        assert shed.retry_after_s == service.config.retry_after_s
        error = json.loads(shed.failure_body)["error"]
        assert error["kind"] == "busy"
        assert error["retry_after_s"] == service.config.retry_after_s
        # shedding is deterministic: the same overload sheds again
        again = service.submit_async(_emulate_payload(inline_schemes_1seg))
        assert again.role == "shed" and again.failure_status == 429
        service.start()  # drain the queued owner at teardown

    def test_same_key_coalesces_instead_of_shedding(
        self, service_factory, inline_schemes
    ):
        # a full queue must not shed a request it can coalesce
        service = service_factory(auto_start=False, queue_depth=1)
        payload = _emulate_payload(inline_schemes)
        service.submit_async(payload)
        follower = service.submit_async(payload)
        assert follower.role == "coalesced"
        service.start()
        assert follower.event.wait(30)

    def test_http_shed_carries_retry_after_header(
        self, service_factory, inline_schemes, inline_schemes_1seg
    ):
        service = service_factory(auto_start=False, queue_depth=1)
        service.submit_async(_emulate_payload(inline_schemes))
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/v1/jobs",
                    body=json.dumps(_emulate_payload(inline_schemes_1seg)),
                )
                response = conn.getresponse()
                data = response.read()
                assert response.status == 429
                assert int(response.getheader("Retry-After")) >= 1
                assert json.loads(data)["error"]["kind"] == "busy"
            finally:
                conn.close()
        finally:
            server.shutdown()
            server.server_close()
            service.start()  # teardown drains the queued owner


class TestChaos:
    # payloads pin the fast engine: a batch-engine emulation takes the
    # vectorized path and never reaches the executor's chaos hooks

    def test_killed_worker_recovers_and_serves_the_result(
        self, service_factory, inline_schemes
    ):
        payload = _emulate_payload(inline_schemes, engine="fast")
        chaos = ChaosPlan(kill_on=(f"{_label(payload)}:1",))
        service = service_factory(workers=2, chaos=chaos)
        response = service.submit(payload)
        assert (response.status, response.cache) == (200, "miss")
        # the crash is invisible in the body: byte-identical to direct
        assert response.body == response_bytes(execute_job(parse_job(payload)))
        executor = service.stats()["executor"]
        assert executor["crashes"] >= 1
        assert executor["retries"] >= 1

    def test_poisoned_job_returns_structured_500_with_ledger(
        self, service_factory, inline_schemes, inline_schemes_1seg
    ):
        payload = _emulate_payload(inline_schemes, engine="fast")
        chaos = ChaosPlan(poison_labels=(_label(payload),))
        service = service_factory(workers=2, retries=2, chaos=chaos)
        response = service.submit(payload)
        assert (response.status, response.cache) == (500, "failed")
        error = json.loads(response.body)["error"]
        assert error["kind"] == "job-failed"
        ledger = error["failures"]
        assert len(ledger) == 1
        assert ledger[0]["label"] == _label(payload)
        assert ledger[0]["attempts"] == 2  # retries exhausted
        assert ledger[0]["error"] == "ChaosPoisonError"
        # failures are never cached ...
        assert service.cache.peek(cache_key(parse_job(payload))) is None
        assert service.stats()["cache"]["entries"] == 0
        # ... and the queue drains: the next request is served normally
        healthy = service.submit(_emulate_payload(inline_schemes_1seg, engine="fast"))
        assert (healthy.status, healthy.cache) == (200, "miss")

    def test_stalled_worker_times_out_and_the_retry_succeeds(
        self, service_factory, inline_schemes
    ):
        payload = _emulate_payload(inline_schemes, engine="fast")
        chaos = ChaosPlan(stall_on=(f"{_label(payload)}:1",), stall_s=60.0)
        service = service_factory(workers=2, timeout_s=1.0, chaos=chaos)
        response = service.submit(payload)
        assert (response.status, response.cache) == (200, "miss")
        assert response.body == response_bytes(execute_job(parse_job(payload)))
        assert service.stats()["executor"]["timeouts"] >= 1

    def test_coalesced_waiters_share_the_failure(
        self, service_factory, inline_schemes
    ):
        payload = _emulate_payload(inline_schemes, engine="fast")
        chaos = ChaosPlan(poison_labels=(_label(payload),))
        service = service_factory(
            workers=2, retries=1, chaos=chaos, auto_start=False
        )
        owner = service.submit_async(payload)
        follower = service.submit_async(payload)
        assert follower.role == "coalesced"
        service.start()
        assert owner.event.wait(60)
        assert follower.event.wait(60)
        assert owner.failure_status == follower.failure_status == 500
        assert owner.failure_body == follower.failure_body


class TestModelErrors:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "parallel"])
    def test_strict_lint_refusal_is_a_422_without_retries(
        self, service_factory, inline_schemes, inline_schemes_1seg, workers
    ):
        # P1 now receives at T=5 but transmits at T=3: parseable, so
        # admission accepts it, but the strict gate refuses it (SB208)
        inverted = _swap_transfer(
            inline_schemes, "P1_576_1_250", "P1_576_5_250"
        )
        payload = _emulate_payload(inverted, strict=True)
        service = service_factory(workers=workers)
        response = service.submit(payload)
        assert (response.status, response.cache) == (422, "failed")
        error = json.loads(response.body)["error"]
        assert error["kind"] == "model-error"
        assert "SB208" in error["message"]
        (entry,) = error["failures"]
        assert (entry["kind"], entry["error"], entry["attempts"]) == (
            "model", "LintError", 1
        )
        executor = service.stats()["executor"]
        assert (executor["attempts"], executor["retries"]) == (1, 0)
        assert service.cache.peek(cache_key(parse_job(payload))) is None
        healthy = service.submit(_emulate_payload(inline_schemes_1seg))
        assert (healthy.status, healthy.cache) == (200, "miss")

    def test_vectorized_member_model_error_spares_its_siblings(
        self, service_factory, inline_schemes
    ):
        # P7 -> P6 closes a cycle: the emulator refuses the graph
        cyclic = _swap_transfer(
            inline_schemes, "P14_576_13_320", "P6_576_13_320"
        )
        bad = _emulate_payload(cyclic, engine="batch")
        good = _emulate_payload(inline_schemes, engine="batch")
        service = service_factory()
        bad_ticket, good_ticket = service.admit([bad, good])
        assert bad_ticket.event.wait(60) and good_ticket.event.wait(60)
        assert bad_ticket.failure_status == 422
        error = json.loads(bad_ticket.failure_body)["error"]
        assert error["kind"] == "model-error"
        assert error["failures"][0]["error"] == "PSDFError"
        assert good_ticket.body == response_bytes(execute_job(parse_job(good)))
        stats = service.stats()
        assert stats["dispatch_batches"] == 1
        assert stats["vectorized_groups"] == 1
        assert stats["cache"]["entries"] == 1
