"""Semantics of the concurrent solve service (P3 tentpole)."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import (
    ServiceClosedError,
    ServiceOverloadedError,
    SolveTimeoutError,
    VocabularyError,
)
from repro.csp.generators import random_schaefer_target, random_structure
from repro.service import Priority, ServiceConfig, SolveService
from repro.structures.graphs import clique, cycle, random_graph
from repro.structures.homomorphism import is_homomorphism
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

BINARY = Vocabulary.from_arities({"R": 2})

#: Thread-only config: fast startup, deterministic backend.
THREADS_ONLY = ServiceConfig(thread_workers=2, process_workers=0)


def cheap_instance(seed: int = 0):
    return (
        random_structure(BINARY, 6, 10, seed=seed),
        random_schaefer_target(BINARY, 3, "horn", seed=seed + 1),
    )


def heavy_instance(seed: int = 0):
    """A backtracking-heavy clique search (the E13 shape)."""
    return clique(5), random_graph(15, 0.5, seed=seed)


def slow_instance():
    """An unsatisfiable clique refutation taking a few hundred ms —
    long enough to reliably occupy a worker while a test stages the
    queue behind it."""
    return clique(7), random_graph(26, 0.55, seed=2)


class TestSubmit:
    def test_submit_returns_pipeline_solution(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = cheap_instance()
                solution = await service.submit(source, target)
                assert solution.stats is not None
                if solution.exists:
                    assert is_homomorphism(
                        solution.homomorphism, source, target
                    )
                return solution

        solution = asyncio.run(scenario())
        assert solution.strategy

    def test_submit_many_preserves_input_order(self):
        pairs = [cheap_instance(seed) for seed in range(6)]

        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                return await service.submit_many(pairs)

        solutions = asyncio.run(scenario())
        direct = [
            SolveService(THREADS_ONLY).pipeline.solve(s, t) for s, t in pairs
        ]
        assert [got.exists for got in solutions] == [
            want.exists for want in direct
        ]

    def test_vocabulary_mismatch_raises_synchronously(self):
        other = Vocabulary.from_arities({"S": 2})

        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                with pytest.raises(VocabularyError):
                    service.submit(
                        Structure(BINARY, {0}), Structure(other, {0})
                    )

        asyncio.run(scenario())

    def test_submit_outside_running_service_raises(self):
        service = SolveService(THREADS_ONLY)
        source, target = cheap_instance()
        with pytest.raises(ServiceClosedError):
            service.submit(source, target)

        async def scenario():
            async with service:
                pass

        asyncio.run(scenario())
        with pytest.raises(ServiceClosedError):
            service.submit(source, target)


class TestCoalescing:
    def test_duplicates_get_the_identical_solution_object(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = heavy_instance()
                rebuilt = Structure(
                    source.vocabulary, source.universe,
                    {"E": source.relation("E")},
                )
                first, second, third = await asyncio.gather(
                    service.submit(source, target),
                    service.submit(source, target),
                    # Structural equality coalesces, not object identity.
                    service.submit(rebuilt, target),
                )
                assert first is second is third
                assert service.stats.coalesce_hits == 2
                assert service.stats.completed == 1

        asyncio.run(scenario())

    def test_different_options_do_not_coalesce(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = cheap_instance()
                await asyncio.gather(
                    service.submit(source, target, width_threshold=1),
                    service.submit(source, target, width_threshold=4),
                )
                assert service.stats.coalesce_hits == 0
                assert service.stats.completed == 2

        asyncio.run(scenario())


class TestTimeouts:
    def test_timeout_raises_cleanly_and_does_not_poison(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = heavy_instance(seed=5)
                with pytest.raises(SolveTimeoutError):
                    await service.submit(source, target, timeout=1e-4)
                assert service.stats.timeouts == 1
                # The computation was not cancelled and nothing about the
                # timeout was cached: a retry gets the right answer.
                retry = await service.submit(source, target, timeout=None)
                direct = service.pipeline.solve(source, target)
                assert retry.exists == direct.exists
                assert service.stats.failed == 0

        asyncio.run(scenario())

    def test_coalesced_waiter_timeout_leaves_others_unharmed(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                source, target = heavy_instance(seed=6)
                patient = service.submit(source, target)
                hasty = service.submit(source, target, timeout=1e-4)
                with pytest.raises(SolveTimeoutError):
                    await hasty
                solution = await patient
                assert solution.exists == service.pipeline.solve(
                    source, target
                ).exists

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_overload_rejects_synchronously(self):
        config = ServiceConfig(
            thread_workers=1, process_workers=0, max_pending=2
        )

        async def scenario():
            async with SolveService(config) as service:
                waiters = [
                    service.submit(*heavy_instance(seed)) for seed in (1, 2)
                ]
                with pytest.raises(ServiceOverloadedError):
                    service.submit(*heavy_instance(3))
                assert service.stats.rejected == 1
                # Coalesced duplicates ride along even at capacity.
                duplicate = service.submit(*heavy_instance(1))
                results = await asyncio.gather(*waiters, duplicate)
                assert results[0] is results[2]

        asyncio.run(scenario())

    def test_submit_many_applies_backpressure_instead(self):
        config = ServiceConfig(
            thread_workers=2, process_workers=0, max_pending=3
        )
        pairs = [cheap_instance(seed) for seed in range(12)]

        async def scenario():
            async with SolveService(config) as service:
                solutions = await service.submit_many(pairs)
                assert len(solutions) == len(pairs)
                assert service.stats.rejected == 0
                assert service.stats.completed >= 1

        asyncio.run(scenario())


class TestPriorities:
    def test_high_priority_dispatches_before_low(self):
        config = ServiceConfig(
            thread_workers=1, process_workers=0, max_pending=64
        )

        async def scenario():
            async with SolveService(config) as service:
                order: list[str] = []

                async def tagged(label, awaitable):
                    await awaitable
                    order.append(label)

                # Occupy the single worker so the queue builds up behind it.
                blocker = service.submit(*slow_instance())
                await asyncio.sleep(0.05)
                low = service.submit(
                    *cheap_instance(1), priority=Priority.LOW
                )
                high = service.submit(
                    *cheap_instance(2), priority=Priority.HIGH
                )
                await asyncio.gather(
                    blocker, tagged("low", low), tagged("high", high)
                )
                assert order == ["high", "low"]

        asyncio.run(scenario())


class TestPriorityBump:
    def test_high_priority_duplicate_lifts_queued_original(self):
        config = ServiceConfig(
            thread_workers=1, process_workers=0, max_pending=64
        )

        async def scenario():
            async with SolveService(config) as service:
                order: list[str] = []

                async def tagged(label, awaitable):
                    await awaitable
                    order.append(label)

                blocker = service.submit(*slow_instance())
                await asyncio.sleep(0.05)
                low_a = service.submit(
                    *cheap_instance(1), priority=Priority.LOW
                )
                normal_b = service.submit(
                    *cheap_instance(2), priority=Priority.NORMAL
                )
                # A HIGH duplicate of the LOW request coalesces *and*
                # lifts the queued original ahead of NORMAL traffic.
                high_dup = service.submit(
                    *cheap_instance(1), priority=Priority.HIGH
                )
                await asyncio.gather(
                    blocker,
                    tagged("a", low_a),
                    tagged("b", normal_b),
                    tagged("a-dup", high_dup),
                )
                assert order.index("a") < order.index("b")
                assert service.stats.coalesce_hits == 1

        asyncio.run(scenario())


class TestStopSemantics:
    def test_stop_without_drain_wakes_backpressured_submitters(self):
        config = ServiceConfig(
            thread_workers=1, process_workers=0, max_pending=1
        )

        async def scenario():
            service = await SolveService(config).start()
            # Fill the only admission slot with a slow solve.
            blocker = service.submit(*slow_instance())
            batch = asyncio.create_task(
                service.submit_many(
                    [cheap_instance(seed) for seed in range(4)]
                )
            )
            await asyncio.sleep(0.05)  # let submit_many block on capacity
            stop_task = asyncio.create_task(service.stop(drain=False))
            with pytest.raises(ServiceClosedError):
                # stop() wakes the blocked submitter, whose retry then
                # observes the stopped service instead of hanging.
                await asyncio.wait_for(batch, timeout=30)
            await stop_task
            solution = await blocker  # already running → completed
            assert solution is not None

        asyncio.run(scenario())


class TestProcessBackend:
    def test_requests_route_to_process_pool_by_cost(self):
        config = ServiceConfig(
            thread_workers=2,
            process_workers=1,
            # Everything is "expensive": force the process path.
            process_cost_threshold=0.0,
        )

        async def scenario():
            async with SolveService(config) as service:
                source, target = cheap_instance()
                solution = await service.submit(source, target)
                assert service.stats.process_solves == 1
                assert service.stats.thread_solves == 0
                direct = service.pipeline.solve(source, target)
                assert solution.exists == direct.exists
                assert solution.homomorphism == direct.homomorphism
                assert solution.strategy == direct.strategy

        asyncio.run(scenario())


class TestStats:
    def test_snapshot_shape(self):
        async def scenario():
            async with SolveService(THREADS_ONLY) as service:
                await service.submit(*cheap_instance())
                return service.stats.snapshot()

        snapshot = asyncio.run(scenario())
        for key in (
            "submitted",
            "completed",
            "coalesce_hits",
            "max_queue_depth",
            "latency",
            "routes",
        ):
            assert key in snapshot
        assert snapshot["completed"] == 1
        assert snapshot["latency"]["count"] == 1
        # Every built-in route is enumerated, traffic or not.
        assert "backtracking" in snapshot["routes"]
        assert "horn-direct" in snapshot["routes"]
        total_route_count = sum(
            bucket["count"] for bucket in snapshot["routes"].values()
        )
        assert total_route_count == 1


class TestPlanOnce:
    """A served request is planned at most once, by whoever can use it."""

    def test_thread_only_service_leaves_planning_to_the_pipeline(
        self, monkeypatch
    ):
        import repro.service.service as service_module

        calls = []
        real_plan = service_module.plan_instance

        def counting_plan(*args, **kwargs):
            calls.append(args)
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(service_module, "plan_instance", counting_plan)
        config = ServiceConfig(thread_workers=2, process_workers=0, plan=True)

        async def scenario():
            async with SolveService(config) as service:
                return [
                    await service.submit(cycle(6), clique(3))
                    for _ in range(3)
                ]

        solutions = asyncio.run(scenario())
        assert calls == []
        for solution in solutions:
            assert solution.exists
            assert solution.stats.plan is not None
            assert solution.stats.plan["route"] == "dp"

    def test_process_backend_builds_one_decomposition_per_source(
        self, monkeypatch
    ):
        import repro.treewidth.heuristics as heuristics

        built = []
        real_decompose = heuristics.decompose

        def counting_decompose(structure, *args, **kwargs):
            built.append(structure)
            return real_decompose(structure, *args, **kwargs)

        monkeypatch.setattr(heuristics, "decompose", counting_decompose)
        config = ServiceConfig(
            thread_workers=2,
            process_workers=1,
            plan=True,
            # Plan for the process decision, but keep the solve here.
            process_cost_threshold=float("inf"),
        )

        async def scenario():
            async with SolveService(config) as service:
                # Structurally equal but distinct objects each time, as
                # decoded requests arrive: no per-object memo can help.
                solutions = [
                    await service.submit(cycle(6), clique(3))
                    for _ in range(3)
                ]
                return solutions, service.cache.stats, service.stats

        solutions, cache_stats, stats = asyncio.run(scenario())
        assert len(built) == 1
        assert stats.thread_solves == 3 and stats.process_solves == 0
        for solution in solutions:
            assert solution.stats.plan is not None
            # The service-side lookup took the miss; the pipeline hits.
            assert solution.stats.cache_misses == 0
        # One miss each for the compiled target and the decomposition.
        assert cache_stats.misses == 2
