"""Disk-buffered and MapReduce-style execution modes."""

import numpy as np

from repro.algorithms import PageRankProgram, pagerank_reference
from repro.bsp import JobSpec, run_job
from repro.cloud.costmodel import PerfModel
from repro.cloud.specs import scaled_large


def run_pr(graph, model, memory=1 << 40):
    return run_job(
        JobSpec(
            program=PageRankProgram(8), graph=graph, num_workers=3,
            perf_model=model, vm_spec=scaled_large(memory),
        )
    )


class TestDiskBuffering:
    def test_results_identical(self, small_world):
        mem = run_pr(small_world, PerfModel())
        disk = run_pr(small_world, PerfModel(disk_buffering=True))
        assert np.allclose(mem.values_array(), disk.values_array(), atol=1e-12)

    def test_charges_disk_time(self, small_world):
        disk = run_pr(small_world, PerfModel(disk_buffering=True))
        assert any(
            w.disk_time > 0 for s in disk.trace for w in s.workers
        )
        mem = run_pr(small_world, PerfModel())
        assert all(w.disk_time == 0 for s in mem.trace for w in s.workers)

    def test_uniform_overhead(self, small_world):
        """§IV: disk buffering is a ~uniform multiplicative overhead."""
        mem = run_pr(small_world, PerfModel())
        disk = run_pr(small_world, PerfModel(disk_buffering=True, disk_bandwidth=1e5))
        ratios = disk.trace.series_elapsed()[1:-1] / mem.trace.series_elapsed()[1:-1]
        assert ratios.min() > 1.15
        assert ratios.std() / ratios.mean() < 0.2  # roughly uniform

    def test_removes_message_memory_pressure(self, small_world):
        mem = run_pr(small_world, PerfModel())
        disk = run_pr(small_world, PerfModel(disk_buffering=True))
        assert disk.trace.peak_memory < mem.trace.peak_memory

    def test_no_spill_even_with_tiny_memory(self, small_world):
        model = PerfModel(disk_buffering=True, restart_overflow_ratio=1e9)
        # Memory big enough for graph+state (~3 KB/worker) but not for the
        # ~7 KB/worker of buffered messages.
        disk = run_pr(small_world, model, memory=6_000)
        mem = run_pr(
            small_world, PerfModel(restart_overflow_ratio=1e9), memory=6_000
        )
        disk_slow = max(w.mem_slowdown for s in disk.trace for w in s.workers)
        mem_slow = max(w.mem_slowdown for s in mem.trace for w in s.workers)
        assert mem_slow > disk_slow


class TestMapReduceIteration:
    def test_results_identical(self, small_world):
        mem = run_pr(small_world, PerfModel())
        mr = run_pr(small_world, PerfModel(mapreduce_iteration=True))
        assert np.allclose(mem.values_array(), mr.values_array(), atol=1e-12)
        ref = pagerank_reference(small_world, iterations=8)
        assert np.allclose(mr.values_array(), ref, atol=1e-10)

    def test_slower_than_disk_buffering(self, small_world):
        bw = 1e5
        disk = run_pr(
            small_world, PerfModel(disk_buffering=True, disk_bandwidth=bw)
        )
        mr = run_pr(
            small_world, PerfModel(mapreduce_iteration=True, disk_bandwidth=bw)
        )
        assert mr.total_time > disk.total_time

    def test_reload_charged_even_on_quiet_supersteps(self, ring10):
        from repro.bsp import VertexProgram

        class Quiet(VertexProgram):
            def compute(self, ctx, state, messages):
                if ctx.superstep < 3:
                    ctx.send(ctx.vertex_id, 1)
                ctx.vote_to_halt()
                return state

        mr = run_job(
            JobSpec(
                program=Quiet(), graph=ring10, num_workers=2,
                perf_model=PerfModel(mapreduce_iteration=True, disk_bandwidth=1e5),
            )
        )
        # Graph/state reload cost appears every superstep, messages or not.
        assert all(
            any(w.disk_time > 0 for w in s.workers) for s in mr.trace
        )
