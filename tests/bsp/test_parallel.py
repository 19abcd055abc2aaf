"""Threaded compute-phase execution: bit-equality with the sequential engine."""

import numpy as np
import pytest

from repro.algorithms import (
    BCProgram,
    KCoreProgram,
    PageRankProgram,
    betweenness_reference,
)
from repro.algorithms import bc as bc_mod
from repro.bsp import JobSpec, run_job
from repro.bsp.parallel import ThreadedBSPEngine
from repro.graph import generators as gen


class TestEquivalence:
    def test_pagerank_identical(self, small_world):
        seq = run_job(
            JobSpec(program=PageRankProgram(10), graph=small_world, num_workers=4)
        )
        par = run_job(
            JobSpec(program=PageRankProgram(10), graph=small_world, num_workers=4),
            engine="threaded",
        )
        assert seq.values == par.values
        assert seq.total_time == pytest.approx(par.total_time)
        assert seq.trace.series_messages().tolist() == par.trace.series_messages().tolist()

    def test_bc_identical(self, small_world):
        roots = range(8)
        mk = lambda: JobSpec(
            program=BCProgram(), graph=small_world, num_workers=6,
            initially_active=False,
            initial_messages=bc_mod.start_messages(roots),
        )
        seq = run_job(mk())
        par = run_job(mk(), engine="threaded", max_threads=6)
        ref = betweenness_reference(small_world, roots=roots)
        assert np.allclose(par.values_array(), ref, atol=1e-9)
        assert seq.values == par.values

    def test_mutating_program_identical(self, small_world):
        seq = run_job(
            JobSpec(program=KCoreProgram(2), graph=small_world, num_workers=4)
        )
        par = run_job(
            JobSpec(program=KCoreProgram(2), graph=small_world, num_workers=4),
            engine="threaded",
        )
        assert seq.values == par.values

    def test_repeated_runs_deterministic(self, small_world):
        runs = [
            run_job(
                JobSpec(program=PageRankProgram(6), graph=small_world, num_workers=8),
                engine="threaded",
            ).values_array()
            for _ in range(3)
        ]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])


class TestMechanics:
    def test_worker_exception_propagates(self, ring10):
        from repro.bsp import VertexProgram

        class Boom(VertexProgram):
            def compute(self, ctx, state, messages):
                if ctx.vertex_id == 7:
                    raise RuntimeError("kaboom")
                ctx.vote_to_halt()
                return state

        with pytest.raises(RuntimeError, match="kaboom"):
            run_job(
                JobSpec(program=Boom(), graph=ring10, num_workers=3),
                engine="threaded",
            )

    def test_thread_cap_validation(self, ring10):
        with pytest.raises(ValueError):
            ThreadedBSPEngine(
                JobSpec(program=PageRankProgram(2), graph=ring10, num_workers=2),
                max_threads=0,
            )

    def test_single_thread_works(self, ring10):
        res = run_job(
            JobSpec(program=PageRankProgram(3), graph=ring10, num_workers=4),
            engine="threaded",
            max_threads=1,
        )
        assert res.halted


class TestDefaultPoolSize:
    def test_caps_at_num_workers(self, monkeypatch):
        from repro.bsp import parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
        assert parallel.default_pool_size(8) == 8

    def test_caps_at_32(self, monkeypatch):
        from repro.bsp import parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 256)
        assert parallel.default_pool_size(100) == 32

    def test_caps_at_cpu_count(self, monkeypatch):
        from repro.bsp import parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
        assert parallel.default_pool_size(16) == 4

    def test_cpu_count_unknown_means_one(self, monkeypatch):
        from repro.bsp import parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert parallel.default_pool_size(16) == 1

    def test_never_below_one(self, monkeypatch):
        from repro.bsp import parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        assert parallel.default_pool_size(0) == 1

    def test_engine_uses_default(self, ring10, monkeypatch):
        from repro.bsp import parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        engine = ThreadedBSPEngine(
            JobSpec(program=PageRankProgram(2), graph=ring10, num_workers=4)
        )
        assert engine._pool._max_workers == 2
