"""Tests for the async job queue (repro.service.jobs).

No pytest-asyncio in the test extra: each test wraps its async body in
``asyncio.run`` so the suite stays plain pytest.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import jobs as jobs_mod
from repro.service.jobs import JobQueue, JobState, QueueFull
from repro.service.models import (
    BatchRequest,
    PolicySpec,
    RetryPolicy,
    ScheduleRequest,
    WorkloadSpec,
)


def make_request(**overrides) -> ScheduleRequest:
    fields = dict(
        workload=WorkloadSpec(family="cholesky", size=4),
        policy=PolicySpec(algorithm="heteroprio-min"),
    )
    fields.update(overrides)
    return ScheduleRequest(**fields)


METRICS = {"makespan": 42.0}


async def ok_runner(job):
    return METRICS, False, 0.01


class TestBackpressure:
    def test_submit_past_capacity_raises_queue_full(self):
        async def body():
            release = asyncio.Event()

            async def blocked_runner(job):
                await release.wait()
                return METRICS, False, 0.0

            queue = JobQueue(blocked_runner, capacity=2, concurrency=1)
            queue.start()
            jobs = [queue.submit(make_request(), key=f"k{i}") for i in range(2)]
            with pytest.raises(QueueFull) as info:
                queue.submit(make_request(), key="k2")
            assert info.value.retry_after_s >= 1
            assert queue.stats_counters["rejected"] == 1
            # Draining the queue frees capacity again.
            release.set()
            await queue.wait_batch(jobs)
            assert queue.depth == 0
            queue.submit(make_request(), key="k3")
            await queue.close()

        asyncio.run(body())

    def test_batch_admission_is_atomic(self):
        async def body():
            release = asyncio.Event()

            async def blocked_runner(job):
                await release.wait()
                return METRICS, False, 0.0

            queue = JobQueue(blocked_runner, capacity=3, concurrency=1)
            queue.start()
            queue.submit(make_request(), key="k0")
            batch = BatchRequest(requests=(make_request(), make_request(), make_request()))
            with pytest.raises(QueueFull):
                queue.submit_batch(batch, keys=["a", "b", "c"])
            # Nothing from the oversized batch was admitted.
            assert queue.depth == 1
            release.set()
            await queue.close()

        asyncio.run(body())


class TestRetries:
    def test_retry_schedule_is_deterministic_and_injected_sleep_observes_it(self):
        policy = RetryPolicy(
            limit=3, interval_s=0.5, backoff=2.0, max_interval_s=10.0, jitter=0.25
        )
        request = make_request(retry=policy)

        async def body():
            observed: list[float] = []

            async def fake_sleep(delay: float) -> None:
                observed.append(delay)

            failures = 2
            calls = {"n": 0}

            async def flaky_runner(job):
                calls["n"] += 1
                if calls["n"] <= failures:
                    raise RuntimeError(f"transient {calls['n']}")
                return METRICS, False, 0.0

            queue = JobQueue(flaky_runner, capacity=4, concurrency=1, sleep=fake_sleep)
            queue.start()
            job = queue.submit(request, key="k")
            await queue.wait(job)
            await queue.close()

            assert job.state is JobState.SUCCEEDED
            assert job.attempts == failures + 1
            assert job.result == METRICS and job.error is None
            assert queue.stats_counters["retries"] == failures
            # The waits are exactly what the policy dictates for this job id.
            expected = [policy.delay_for(a, token=job.id) for a in (1, 2)]
            assert observed == expected

        asyncio.run(body())

    def test_exhausted_retries_fail_with_last_error(self):
        request = make_request(retry=RetryPolicy(limit=1, interval_s=0.01))

        async def body():
            async def broken_runner(job):
                raise ValueError("boom")

            queue = JobQueue(broken_runner, capacity=4, concurrency=1)
            queue.start()
            job = await queue.wait(queue.submit(request, key="k"))
            await queue.close()
            assert job.state is JobState.FAILED
            assert job.attempts == 2
            assert job.error == "ValueError: boom"
            assert queue.stats_counters["failed"] == 1

        asyncio.run(body())


class TestBatchSemantics:
    @staticmethod
    def _runner_failing_on(bad_keys):
        async def runner(job):
            if job.key in bad_keys:
                raise RuntimeError("bad instance")
            return METRICS, False, 0.0

        return runner

    def test_continue_on_error_runs_everything(self):
        async def body():
            queue = JobQueue(self._runner_failing_on({"k1"}), capacity=8, concurrency=1)
            queue.start()
            batch = BatchRequest(requests=(make_request(),) * 3)
            jobs = queue.submit_batch(batch, keys=["k0", "k1", "k2"])
            await queue.wait_batch(jobs, continue_on_error=True)
            await queue.close()
            assert [j.state for j in jobs] == [
                JobState.SUCCEEDED,
                JobState.FAILED,
                JobState.SUCCEEDED,
            ]

        asyncio.run(body())

    def test_fail_fast_cancels_the_remainder(self):
        async def body():
            queue = JobQueue(self._runner_failing_on({"k0"}), capacity=8, concurrency=1)
            queue.start()
            batch = BatchRequest(
                requests=(make_request(),) * 3, continue_on_error=False
            )
            jobs = queue.submit_batch(batch, keys=["k0", "k1", "k2"])
            await queue.wait_batch(jobs, continue_on_error=False)
            await queue.close()
            assert jobs[0].state is JobState.FAILED
            # Everything after the first failure was cancelled, not run.
            assert {j.state for j in jobs[1:]} <= {JobState.CANCELLED}

        asyncio.run(body())


class TestCancellation:
    def test_cancel_queued_job_settles_without_running(self):
        async def body():
            release = asyncio.Event()

            async def blocked_runner(job):
                await release.wait()
                return METRICS, False, 0.0

            queue = JobQueue(blocked_runner, capacity=4, concurrency=1)
            queue.start()
            running = queue.submit(make_request(), key="k0")
            queued = queue.submit(make_request(), key="k1")
            await asyncio.sleep(0)  # let the worker pick up k0
            assert queue.cancel(queued.id)
            await queue.wait(queued)
            assert queued.state is JobState.CANCELLED
            assert queued.attempts == 0
            release.set()
            await queue.wait(running)
            assert running.state is JobState.SUCCEEDED
            await queue.close()

        asyncio.run(body())

    def test_cancel_running_job_interrupts_the_runner(self):
        async def body():
            entered = asyncio.Event()

            async def hanging_runner(job):
                entered.set()
                await asyncio.Event().wait()  # never returns
                raise AssertionError("unreachable")

            queue = JobQueue(hanging_runner, capacity=4, concurrency=1)
            queue.start()
            job = queue.submit(make_request(), key="k0")
            await entered.wait()
            assert queue.cancel(job.id)
            await queue.wait(job)
            assert job.state is JobState.CANCELLED
            assert queue.stats_counters["cancelled"] == 1
            await queue.close()

        asyncio.run(body())

    def test_cancel_is_a_noop_on_terminal_and_unknown_jobs(self):
        async def body():
            queue = JobQueue(ok_runner, capacity=4, concurrency=1)
            queue.start()
            job = await queue.wait(queue.submit(make_request(), key="k"))
            assert not queue.cancel(job.id)
            assert not queue.cancel("j999999")
            await queue.close()

        asyncio.run(body())

    def test_close_settles_live_jobs_as_cancelled(self):
        async def body():
            async def hanging_runner(job):
                await asyncio.Event().wait()
                raise AssertionError("unreachable")

            queue = JobQueue(hanging_runner, capacity=4, concurrency=2)
            queue.start()
            jobs = [queue.submit(make_request(), key=f"k{i}") for i in range(3)]
            await asyncio.sleep(0)
            await queue.close()
            assert all(j.state is JobState.CANCELLED for j in jobs)
            assert all(j._done.is_set() for j in jobs)

        asyncio.run(body())


class TestStats:
    def test_stats_shape_and_depth_accounting(self):
        async def body():
            queue = JobQueue(ok_runner, capacity=4, concurrency=2)
            queue.start()
            job = await queue.wait(queue.submit(make_request(), key="k"))
            stats = queue.stats()
            await queue.close()
            assert job.state is JobState.SUCCEEDED
            assert stats["submitted"] == 1
            assert stats["succeeded"] == 1
            assert stats["depth"] == 0
            assert stats["capacity"] == 4
            assert stats["retry_after_s"] >= 1

        asyncio.run(body())


class TestAnsweredJobs:
    def test_answered_job_is_settled_counted_and_never_queued(self):
        async def body():
            ran = []

            async def runner(job):
                ran.append(job.id)
                return METRICS, False, 0.0

            queue = JobQueue(runner, capacity=1, concurrency=1)
            queue.start()
            job = queue.submit_answered(
                make_request(), key="k", metrics=METRICS, cached=True,
                elapsed_s=0.5,
            )
            assert job.state is JobState.SUCCEEDED and job._done.is_set()
            assert (job.attempts, job.result, job.cached, job.elapsed_s) == (
                1, METRICS, True, 0.5)
            assert job.admitted_dict() == {
                **job.to_dict(), "state": "queued", "attempts": 0,
                "cached": False, "error": None,
            }
            assert queue.get(job.id) is job
            assert queue.depth == 0 and queue._pending.empty()
            stats = queue.stats()
            assert (stats["submitted"], stats["succeeded"]) == (1, 1)
            # It took no capacity: the one slot is still free.
            await queue.wait(queue.submit(make_request(), key="k2"))
            await queue.close()
            assert len(ran) == 1 and job.id not in ran

        asyncio.run(body())

    def test_check_capacity_counts_a_rejection(self):
        queue = JobQueue(ok_runner, capacity=2, concurrency=1)
        queue.check_capacity(2)
        with pytest.raises(QueueFull):
            queue.check_capacity(3)
        assert queue.stats_counters["rejected"] == 1


class TestRetention:
    """The job table keeps live jobs and the newest settled ones only."""

    @pytest.fixture(autouse=True)
    def small_retention(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "SETTLED_RETAINED", 3)

    @staticmethod
    def answer(queue, n):
        return [
            queue.submit_answered(
                make_request(), key=f"a{i}", metrics=METRICS, cached=True,
                elapsed_s=0.0,
            )
            for i in range(n)
        ]

    def test_table_never_exceeds_retention_plus_live_jobs(self):
        async def body():
            queue = JobQueue(ok_runner, capacity=8, concurrency=2)
            queue.start()
            for _ in range(4):
                run = [queue.submit(make_request(), key="r") for _ in range(2)]
                self.answer(queue, 2)
                assert len(queue._jobs) <= 3 + queue.depth
                await queue.wait_batch(run)
                assert len(queue._jobs) <= 3 + queue.depth
            await queue.close()
            assert len(queue._jobs) == 3

        asyncio.run(body())

    def test_oldest_settled_job_goes_first(self):
        queue = JobQueue(ok_runner, capacity=8, concurrency=1)
        jobs = self.answer(queue, 5)
        assert [queue.get(job.id) for job in jobs[:2]] == [None, None]
        assert [queue.get(job.id) for job in jobs[2:]] == jobs[2:]

    def test_live_jobs_are_never_evicted(self):
        async def body():
            release = asyncio.Event()

            async def blocked_runner(job):
                await release.wait()
                return METRICS, False, 0.0

            queue = JobQueue(blocked_runner, capacity=4, concurrency=1)
            queue.start()
            running = queue.submit(make_request(), key="k0")
            queued = queue.submit(make_request(), key="k1")
            await asyncio.sleep(0)  # let the worker pick up k0
            assert running.state is JobState.RUNNING
            answered = self.answer(queue, 10)
            assert queue.get(running.id) is running
            assert queue.get(queued.id) is queued
            assert queue.get(answered[6].id) is None
            release.set()
            await queue.wait_batch([running, queued])
            # Now settled, the two are the newest and evict older answers.
            assert queue.get(running.id) is running
            assert queue.get(queued.id) is queued
            assert [queue.get(job.id) for job in answered[-2:]] == [
                None, answered[-1]]
            await queue.close()

        asyncio.run(body())
