"""Admission control: cost classes, queue bounds, retry hints."""

import threading

import pytest

from repro import obs
from repro.errors import ParameterError
from repro.graph.generators import planted_kvcc_graph
from repro.serving import KvccIndex, QueryEngine
from repro.serving.admission import (
    COST_CLASSES,
    AdmissionController,
    cost_class,
)
from repro.serving.protocol import handle_request


@pytest.fixture(scope="module")
def graph():
    return planted_kvcc_graph(2, 10, 3, seed=4)


class TestCostClass:
    def test_query_is_point(self):
        assert cost_class({"op": "query", "v": 0, "k": 2}) == "point"

    def test_reload_is_reload(self):
        assert cost_class({"op": "reload"}) == "reload"

    def test_mixed_batch_is_batch(self):
        request = {
            "op": "batch",
            "queries": [{"v": 0, "k": 2}, {"v": 1, "k": 2}],
        }
        assert cost_class(request) == "batch"

    def test_single_vertex_sweep_is_scan(self):
        request = {
            "op": "batch",
            "queries": [{"v": 7, "k": k} for k in range(1, 5)],
        }
        assert cost_class(request) == "scan"

    def test_single_query_batch_is_batch_not_scan(self):
        request = {"op": "batch", "queries": [{"v": 7, "k": 1}]}
        assert cost_class(request) == "batch"

    @pytest.mark.parametrize("op", ["ping", "stats", "shutdown", "nope"])
    def test_control_and_unknown_ops_bypass(self, op):
        assert cost_class({"op": op}) is None


class TestController:
    def test_admits_when_a_slot_is_free(self):
        controller = AdmissionController(workers=1, max_queue=0)
        ticket = controller.admit("point")
        assert ticket is not None and ticket.cost_class == "point"
        ticket.release()
        # The freed slot admits the next request.
        with controller.admit("point") as again:
            assert again is not None

    def test_bounded_sheds_past_the_queue(self):
        controller = AdmissionController(workers=1, max_queue=0)
        held = controller.admit("point")
        assert controller.admit("point") is None  # busy, no queue slots
        held.release()

    def test_strict_never_queues(self):
        # max_queue=0 admits without waiting: every cost class sheds
        # the moment all workers are busy, and nothing is parked.
        controller = AdmissionController(workers=1, max_queue=0)
        held = controller.admit("point")
        for klass in COST_CLASSES:
            assert controller.admit(klass) is None
        assert sum(controller.stats()["waiting"].values()) == 0
        held.release()

    def test_reload_queue_partition_holds_one(self):
        controller = AdmissionController(workers=1, max_queue=8)
        held = controller.admit("point")
        parked = threading.Event()

        def waiter():
            parked.set()
            ticket = controller.admit("reload")
            ticket.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        parked.wait(timeout=5)
        # Let the waiter actually reach the condition wait.
        give_up = threading.Event()
        while not give_up.wait(0.01):
            if controller.stats()["waiting"]["reload"] == 1:
                break
        # The partition is full: a second reload sheds while a point
        # request still finds queue room.
        assert controller.admit("reload") is None
        held.release()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_shed_and_admit_counters(self):
        controller = AdmissionController(workers=1, max_queue=0)
        with obs.collecting() as collector:
            held = controller.admit("point")
            assert controller.admit("scan") is None
            held.release()
        assert collector.counter("serving.admitted") == 1
        assert collector.counter("serving.shed") == 1
        assert collector.counter("serving.shed.scan") == 1

    def test_retry_after_is_clamped_and_scales_with_backlog(self):
        controller = AdmissionController(workers=1, max_queue=4)
        idle = controller.retry_after_ms("point")
        assert 10 <= idle <= 5000
        held = controller.admit("reload")
        busy = controller.retry_after_ms("reload")
        assert busy >= idle
        held.release()

    def test_release_folds_service_time_into_the_ewma(self):
        controller = AdmissionController(workers=1, max_queue=0)
        before = controller.stats()["service_ewma_ms"]["point"]
        controller.admit("point").release()
        after = controller.stats()["service_ewma_ms"]["point"]
        assert after != before  # a near-zero observation pulled it down

    def test_stats_snapshot_shape(self):
        controller = AdmissionController(workers=2, max_queue=8)
        stats = controller.stats()
        assert stats["workers"] == 2
        assert stats["max_queue"] == 8
        assert set(stats["in_service"]) == set(COST_CLASSES)
        assert set(stats["waiting"]) == set(COST_CLASSES)
        assert set(stats["service_ewma_ms"]) == set(COST_CLASSES)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_queue": -1},
            {"workers": -2},
        ],
    )
    def test_bad_construction_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            AdmissionController(**kwargs)

    def test_unknown_cost_class_rejected(self):
        controller = AdmissionController()
        with pytest.raises(ParameterError, match="cost class"):
            controller.admit("quantum")


class TestProtocolOverload:
    def _saturated(self):
        controller = AdmissionController(workers=1, max_queue=0)
        held = controller.admit("point")
        return controller, held

    def test_shed_request_gets_overloaded_with_hint(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        controller, held = self._saturated()
        with obs.collecting() as collector:
            response, keep = handle_request(
                engine,
                {"op": "query", "v": 0, "k": 2, "id": 42},
                admission=controller,
            )
        held.release()
        assert keep is True
        assert response["code"] == "overloaded"
        assert response["retriable"] is True
        assert isinstance(response["retry_after_ms"], int)
        assert response["id"] == 42
        # The engine was never touched.
        assert collector.counter("serving.queries") == 0
        assert collector.counter("serving.errors.overloaded") == 1

    def test_control_ops_bypass_admission(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        controller, held = self._saturated()
        response, _ = handle_request(
            engine, {"op": "stats"}, admission=controller
        )
        held.release()
        assert response["ok"]
        admission = response["stats"]["admission"]
        assert admission["in_service"]["point"] == 1

    def test_admitted_request_releases_its_slot(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        controller = AdmissionController(workers=1, max_queue=0)
        response, _ = handle_request(
            engine, {"op": "query", "v": 0, "k": 2}, admission=controller
        )
        assert response["ok"]
        # The slot came back even though the op finished: a second
        # request is admitted, not shed.
        again, _ = handle_request(
            engine, {"op": "query", "v": 0, "k": 2}, admission=controller
        )
        assert again["ok"]

    def test_slot_released_even_when_the_op_errors(self, graph):
        engine = QueryEngine(graph, KvccIndex.build(graph))
        controller = AdmissionController(workers=1, max_queue=0)
        response, _ = handle_request(
            engine, {"op": "query", "v": 999999, "k": 2},
            admission=controller,
        )
        assert response["code"] == "unknown-vertex"
        assert controller.stats()["in_service"]["point"] == 0
