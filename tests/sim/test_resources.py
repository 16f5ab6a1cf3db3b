"""Tests for the shared-server resources: PS, round-robin, FIFO."""

import pytest

from repro.kernel import Kernel
from repro.sim.resources import (
    FifoServer,
    ProcessorSharingServer,
    RoundRobinServer,
)


@pytest.fixture
def kernel():
    return Kernel()


def job(kernel, server, demand, done, tag=None):
    def body():
        yield server.request(demand)
        done.append((tag, kernel.now))
    return body()


# ---------------------------------------------------------------------------
# Processor sharing
# ---------------------------------------------------------------------------

def test_ps_single_job_takes_demand(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 2.0, done))
    kernel.run()
    assert done == [(None, 2.0)]


def test_ps_two_equal_jobs_share_equally(kernel):
    """Two jobs of demand d arriving together finish together at 2d."""
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 1.0, done, "a"))
    kernel.spawn(job(kernel, server, 1.0, done, "b"))
    kernel.run()
    assert [t for _, t in done] == [2.0, 2.0]


def test_ps_short_job_finishes_first(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 0.5, done, "short"))
    kernel.spawn(job(kernel, server, 2.0, done, "long"))
    kernel.run()
    # Short job: shares until it accumulates 0.5 of service at rate 1/2
    # -> finishes at t=1.0; long job then runs alone: 2.0-0.5 remaining
    # at full rate -> finishes at 1.0 + 1.5 = 2.5.
    assert done == [("short", 1.0), ("long", 2.5)]


def test_ps_late_arrival(kernel):
    server = ProcessorSharingServer(kernel)
    done = []

    def late():
        yield kernel.sleep(1.0)
        yield server.request(1.0)
        done.append(("late", kernel.now))

    kernel.spawn(job(kernel, server, 2.0, done, "early"))
    kernel.spawn(late())
    kernel.run()
    # t=0..1: early alone (1.0 of 2.0 done). t=1..3: both share (rate 1/2):
    # late needs 1.0 -> 2 wall seconds -> t=3; early finishes at t=3 too.
    assert sorted(t for _, t in done) == [3.0, 3.0]


def test_ps_zero_demand_completes_instantly(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 0.0, done))
    kernel.run()
    assert done == [(None, 0.0)]


def test_ps_capacity_scales_rate(kernel):
    server = ProcessorSharingServer(kernel, capacity=2.0)
    done = []
    kernel.spawn(job(kernel, server, 2.0, done))
    kernel.run()
    assert done == [(None, 1.0)]


def test_ps_utilization_and_counters(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 2.0, done))
    kernel.run(until=4.0)
    assert server.jobs_completed == 1
    assert server.utilization(4.0) == pytest.approx(0.5)


def test_ps_active_jobs(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 5.0, done))
    kernel.spawn(job(kernel, server, 5.0, done))
    kernel.run(until=1.0)
    assert server.active_jobs == 2
    kernel.run()
    assert server.active_jobs == 0


def test_ps_killed_job_evicted(kernel):
    server = ProcessorSharingServer(kernel)
    done = []
    victim = kernel.spawn(job(kernel, server, 10.0, done, "victim"))
    kernel.spawn(job(kernel, server, 2.0, done, "survivor"))
    kernel.run(until=1.0)
    kernel.kill(victim)
    kernel.run()
    # Survivor: 0.5 done by t=1 (sharing), then full rate: 1.5 more -> 2.5.
    assert done == [("survivor", 2.5)]
    assert server.active_jobs == 0


def test_ps_many_jobs_conserve_work(kernel):
    """Total completion time of a batch equals total demand (work
    conservation: the server is never idle while jobs remain)."""
    server = ProcessorSharingServer(kernel)
    done = []
    demands = [0.3, 1.1, 0.7, 2.0, 0.9]
    for i, demand in enumerate(demands):
        kernel.spawn(job(kernel, server, demand, done, i))
    kernel.run()
    assert max(t for _, t in done) == pytest.approx(sum(demands))
    assert server.jobs_completed == len(demands)


def test_ps_negative_demand_rejected(kernel):
    server = ProcessorSharingServer(kernel)
    from repro.errors import SimulationError
    with pytest.raises(SimulationError):
        server.request(-1.0)


# ---------------------------------------------------------------------------
# Round-robin
# ---------------------------------------------------------------------------

def test_rr_single_job(kernel):
    server = RoundRobinServer(kernel, time_slice=0.001)
    done = []
    kernel.spawn(job(kernel, server, 0.01, done))
    kernel.run()
    assert done[0][1] == pytest.approx(0.01)


def test_rr_two_jobs_interleave(kernel):
    server = RoundRobinServer(kernel, time_slice=0.001)
    done = []
    kernel.spawn(job(kernel, server, 0.01, done, "a"))
    kernel.spawn(job(kernel, server, 0.01, done, "b"))
    kernel.run()
    times = sorted(t for _, t in done)
    # Both finish around 0.02 — within one slice of each other.
    assert times[0] == pytest.approx(0.02, abs=0.002)
    assert times[1] == pytest.approx(0.02, abs=0.002)


def test_rr_approximates_ps(kernel):
    """With a slice much smaller than demands, RR matches PS closely —
    the justification for the default PS server (Section 5's 1 ms slice
    vs 20 ms operations)."""
    rr_kernel, ps_kernel = Kernel(), Kernel()
    rr = RoundRobinServer(rr_kernel, time_slice=0.001)
    ps = ProcessorSharingServer(ps_kernel)
    rr_done, ps_done = [], []
    demands = [0.2, 0.14, 0.3]
    for i, demand in enumerate(demands):
        rr_kernel.spawn(job(rr_kernel, rr, demand, rr_done, i))
        ps_kernel.spawn(job(ps_kernel, ps, demand, ps_done, i))
    rr_kernel.run()
    ps_kernel.run()
    rr_times = dict(rr_done)
    ps_times = dict(ps_done)
    for i in range(len(demands)):
        assert rr_times[i] == pytest.approx(ps_times[i], abs=0.01)


def test_rr_time_slice_validation(kernel):
    from repro.errors import SimulationError
    with pytest.raises(SimulationError):
        RoundRobinServer(kernel, time_slice=0.0)


# ---------------------------------------------------------------------------
# FIFO
# ---------------------------------------------------------------------------

def test_fifo_serves_in_arrival_order(kernel):
    server = FifoServer(kernel)
    done = []
    kernel.spawn(job(kernel, server, 1.0, done, "first"))
    kernel.spawn(job(kernel, server, 1.0, done, "second"))
    kernel.run()
    assert done == [("first", 1.0), ("second", 2.0)]


def test_fifo_idle_then_busy(kernel):
    server = FifoServer(kernel)
    done = []

    def late():
        yield kernel.sleep(5.0)
        yield server.request(1.0)
        done.append(("late", kernel.now))

    kernel.spawn(late())
    kernel.run()
    assert done == [("late", 6.0)]
    assert server.utilization(6.0) == pytest.approx(1 / 6)


def test_rr_killed_job_does_not_stall_others(kernel):
    server = RoundRobinServer(kernel, time_slice=0.001)
    done = []
    victim = kernel.spawn(job(kernel, server, 0.05, done, "victim"))
    kernel.spawn(job(kernel, server, 0.01, done, "other"))
    kernel.run(until=0.002)
    kernel.kill(victim)
    kernel.run()
    assert [tag for tag, _ in done] == ["other"]


def test_rr_worker_respawns_after_idle(kernel):
    server = RoundRobinServer(kernel, time_slice=0.001)
    done = []
    kernel.spawn(job(kernel, server, 0.01, done, "first"))
    kernel.run()

    def late():
        yield kernel.sleep(5.0)
        yield server.request(0.01)
        done.append(("late", kernel.now))

    kernel.spawn(late())
    kernel.run()
    assert len(done) == 2
    assert done[-1][0] == "late"


# ---------------------------------------------------------------------------
# Callback jobs on the queued servers (request_call)
# ---------------------------------------------------------------------------

QUEUED_SERVERS = [
    pytest.param(lambda k: RoundRobinServer(k, time_slice=0.001), id="rr"),
    pytest.param(FifoServer, id="fifo"),
]


@pytest.mark.parametrize("make_server", QUEUED_SERVERS)
def test_request_call_fires_when_request_would_resume(make_server):
    """A callback job completes at the virtual instant a process
    ``request`` of equal demand, submitted at the same moment, resumes."""
    def run(use_call):
        kernel = Kernel()
        server = make_server(kernel)
        done = []
        kernel.spawn(job(kernel, server, 0.03, done, "other"))

        def submitter():
            yield kernel.sleep(0.005)
            if use_call:
                server.request_call(
                    0.02, lambda: done.append(("job", kernel.now)))
            else:
                yield server.request(0.02)
                done.append(("job", kernel.now))

        kernel.spawn(submitter())
        kernel.run()
        return dict(done)

    called = run(use_call=True)
    assert called == run(use_call=False)
    assert called["job"] > 0.025


@pytest.mark.parametrize("make_server", QUEUED_SERVERS)
def test_request_call_zero_demand_calls_back_immediately(make_server):
    kernel = Kernel()
    server = make_server(kernel)
    calls = []
    server.request_call(0.0, calls.append, "now")
    assert calls == ["now"]
    assert server.active_jobs == 0
