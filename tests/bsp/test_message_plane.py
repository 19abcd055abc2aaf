"""The bulk message plane against its per-message definition.

Unit level: ``emit_to_neighbors`` vs a loop of ``emit`` vs the
per-message rule (kept here as the reference), and ``deliver_bucket`` vs
``deliver_remote`` vs a per-payload receive-side fold.  With a combiner a
box is the folded payload itself, else the payload list; injected control
messages queue apart and follow the box into ``compute()``.  Also: what
``compute()`` receives, migration and checkpointing of combined boxes,
adjacency reads with and without the mutation overlay, and an allocation
guard.  Job level: bulk BC vs per-edge-loop BC, the unknown-vertex error
path, and routing that follows a mid-job migration.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import BCProgram, PageRankProgram, betweenness_reference
from repro.algorithms import bc as bc_mod
from repro.analysis.traces import trace_to_dict
from repro.bsp import JobSpec, VertexProgram, run_job
from repro.bsp.combiners import MinCombiner, SumCombiner
from repro.bsp.debug import InvariantChecker
from repro.bsp.worker import PartitionWorker
from repro.cloud.costmodel import PerfModel
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.partition.dynamic import DynamicRepartitioner
from repro.scheduling import SequentialInitiation, StaticSizer, SwathController


class _Plain(VertexProgram):
    """No behaviour: the tests drive the worker's plane directly.  The
    default ``payload_nbytes`` makes tuple payloads variable-size."""

    def __init__(self, combiner=None):
        self.combiner = combiner

    def compute(self, ctx, state, messages):
        ctx.vote_to_halt()
        return state


def fleet(graph, assignment, combiner):
    assignment = np.asarray(assignment, dtype=np.int64)
    program = _Plain(combiner)
    return [
        PartitionWorker(
            worker_id=w, graph=graph,
            vertex_ids=np.flatnonzero(assignment == w), program=program,
            model=PerfModel(), assignment=assignment,
        )
        for w in range(int(assignment.max()) + 1)
    ]


def _copy(w, box):
    return box if w.program.combiner is not None else list(box)


def plane(w):
    """Everything the plane leaves behind, orders included."""
    return {
        "in_next": [(k, _copy(w, box)) for k, box in w.in_next.items()],
        "injected": [(k, list(ps)) for k, ps in w._injected.items()],
        "out_remote": [
            (dw, [(k, _copy(w, box)) for k, box in bucket.items()])
            for dw, bucket in w.out_remote.items()
        ],
        "msgs_local": w.stats.msgs_out_local,
        "msgs_remote": w.stats.msgs_out_remote,
        "in_next_bytes": w.in_next_payload_bytes,
        "wire_bytes": w.out_remote_wire_bytes,
    }


def parent_emit(w, dst, payload):
    """The per-message rule: owner looked up per message, boxes created
    straight in ``out_remote``; a combined box is the payload itself."""
    program, combiner = w.program, w.program.combiner
    owner = int(w.assignment[dst])
    if owner == w.worker_id:
        boxes = w.in_next
    else:
        boxes = w.out_remote.setdefault(owner, {})
    if dst in boxes:
        if combiner is not None:
            boxes[dst] = combiner.combine(boxes[dst], payload)
            return
        boxes[dst].append(payload)
    else:
        boxes[dst] = payload if combiner is not None else [payload]
    if owner == w.worker_id:
        w.in_next_payload_bytes += program.payload_nbytes(payload)
        w.stats.msgs_out_local += 1
    else:
        w.out_remote_wire_bytes += w.model.message_wire_bytes(
            program.payload_nbytes(payload)
        )
        w.stats.msgs_out_remote += 1


def parent_deliver(w, dst, box):
    """The receive-side fold, one payload at a time."""
    program, combiner = w.program, w.program.combiner
    payloads = [box] if combiner is not None else box
    wire = 0.0
    for p in payloads:
        wire += w.model.message_wire_bytes(program.payload_nbytes(p))
        if combiner is not None and dst in w.in_next:
            w.in_next[dst] = combiner.combine(w.in_next[dst], p)
            continue
        if combiner is not None:
            w.in_next[dst] = p
        else:
            w.in_next.setdefault(dst, []).append(p)
        w.in_next_payload_bytes += program.payload_nbytes(p)
    return wire


COMBINERS = {"none": lambda: None, "sum": SumCombiner, "min": MinCombiner}


@st.composite
def scenarios(draw):
    n = draw(st.integers(3, 14))
    k = draw(st.integers(1, 4))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=3 * n,
    ))
    graph = from_edges(n, edges, undirected=draw(st.booleans()))
    assignment = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    assignment[0] = k - 1  # every worker id up to k-1 exists in the fleet
    combiner = draw(st.sampled_from(sorted(COMBINERS)))
    if combiner == "none":
        # object payloads of differing sizes
        payloads = [(v,) * (1 + v % 3) for v in range(n)]
    else:
        payloads = [draw(st.integers(-5, 5)) / 4 for _ in range(n)]
    return graph, assignment, combiner, payloads


def drive(worker, payloads, how):
    """Every hosted vertex sends its payload along its out-edges."""
    for v in sorted(worker.states):
        if how == "bulk":
            worker.emit_to_neighbors(v, payloads[v])
            continue
        for u in worker.effective_neighbors(v):
            if how == "loop":
                worker.emit(v, int(u), payloads[v])
            else:
                parent_emit(worker, int(u), payloads[v])
    if how != "parent":
        worker._route_pending()


def assert_same_plane(build, payloads):
    """``build()`` returns a fresh, identically prepared fleet."""
    planes = {}
    for how in ("bulk", "loop", "parent"):
        workers = build()
        for w in workers:
            drive(w, payloads, how)
        planes[how] = [plane(w) for w in workers]
    assert planes["bulk"] == planes["loop"] == planes["parent"]


class TestEmitDifferential:
    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_bulk_equals_per_message(self, scenario):
        graph, assignment, combiner, payloads = scenario

        def build():
            workers = fleet(graph, assignment, COMBINERS[combiner]())
            for w in workers:
                w.begin_superstep(0, {})
            return workers

        assert_same_plane(build, payloads)

    @given(scenarios(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_with_overlay(self, scenario, data):
        graph, assignment, combiner, payloads = scenario
        n = graph.num_vertices
        v = data.draw(st.integers(0, n - 1))
        added = data.draw(st.integers(0, n - 1))
        nbrs = [int(u) for u in graph.neighbors(v)]

        def build():
            workers = fleet(graph, assignment, COMBINERS[combiner]())
            owner = workers[assignment[v]]
            owner.request_mutation(v, "add", added)
            owner.request_mutation(v, "add", added)  # duplicate edge
            if nbrs:
                owner.request_mutation(v, "remove", nbrs[0])
            for w in workers:
                w.begin_superstep(0, {})
            assert v in owner._overlay
            return workers

        assert_same_plane(build, payloads)

    @given(scenarios(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_after_migration_changed_what_is_hosted(self, scenario, data):
        graph, assignment, combiner, payloads = scenario
        k = max(assignment) + 1
        v = data.draw(st.integers(0, graph.num_vertices - 1))
        dest = (assignment[v] + 1) % k

        def build():
            workers = fleet(graph, assignment, COMBINERS[combiner]())
            moved = np.asarray(assignment, dtype=np.int64)
            if dest != assignment[v]:
                workers[dest].import_vertex(
                    v, *workers[assignment[v]].export_vertex(v)
                )
                moved[v] = dest
            for w in workers:
                w.assignment = moved
                w.begin_superstep(0, {})
            return workers

        assert_same_plane(build, payloads)

    @given(scenarios(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_with_injected_boxes(self, scenario, data):
        graph, assignment, combiner, payloads = scenario
        seeded = data.draw(st.lists(
            st.integers(0, graph.num_vertices - 1), max_size=4, unique=True,
        ))

        def build():
            workers = fleet(graph, assignment, COMBINERS[combiner]())
            for w in workers:
                w.begin_superstep(0, {})
            for dst in seeded:
                workers[assignment[dst]].inject(dst, payloads[dst])
            return workers

        assert_same_plane(build, payloads)

    def test_emit_to_unhosted_unknown_vertex_raises(self):
        (w,) = fleet(gen.ring(4), [0, 0, 0, 0], None)
        w.begin_superstep(0, {})
        for bad in (4, -1):
            with pytest.raises(ValueError, match="unknown vertex"):
                w.emit(0, bad, "x")


class TestDeliverBucket:
    @given(scenarios(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bucket_equals_per_box_delivery(self, scenario, data):
        graph, assignment, combiner, payloads = scenario
        hosted = [v for v, a in enumerate(assignment) if a == 0]
        if not hosted:
            return
        # Two source workers' buckets in a row: keys unique inside one
        # bucket, repeated across them (the fold into an existing box).
        # A combined box is one payload, a plain one a list of them.
        if combiner == "none":
            box = st.lists(st.sampled_from(payloads), min_size=1, max_size=3)
        else:
            box = st.sampled_from(payloads)
        buckets = [
            [
                (dst, data.draw(box))
                for dst in data.draw(st.lists(
                    st.sampled_from(hosted), max_size=6, unique=True))
            ]
            for _ in range(2)
        ]

        def receiver():
            w = fleet(graph, assignment, COMBINERS[combiner]())[0]
            w.begin_superstep(0, {})
            w.inject(hosted[0], payloads[hosted[0]])
            return w

        bulk, single, parent = receiver(), receiver(), receiver()
        for items in buckets:
            msgs, wire = bulk.deliver_bucket(dict(items))
            single_wire = sum(single.deliver_remote(d, ps) for d, ps in items)
            parent_wire = sum(parent_deliver(parent, d, ps) for d, ps in items)
            assert msgs == sum(
                1 if combiner != "none" else len(ps) for _, ps in items)
            assert wire == single_wire == parent_wire
        assert plane(bulk) == plane(single) == plane(parent)


class _Record(VertexProgram):
    """Keeps what every compute() call receives (a test-only side effect)."""

    def __init__(self, combiner=None):
        self.combiner = combiner
        self.seen = []

    def compute(self, ctx, state, messages):
        self.seen.append((ctx.vertex_id, list(messages)))
        ctx.vote_to_halt()
        return state


def _recording_fleet(graph, assignment, combiner):
    program = _Record(combiner)
    assignment = np.asarray(assignment, dtype=np.int64)
    workers = [
        PartitionWorker(
            worker_id=w, graph=graph,
            vertex_ids=np.flatnonzero(assignment == w), program=program,
            model=PerfModel(), assignment=assignment,
            active_ids=np.empty(0, dtype=np.int64),  # messages wake them
        )
        for w in range(int(assignment.max()) + 1)
    ]
    for w in workers:
        w.begin_superstep(0, {})
    return program, workers


def _received(program, workers, superstep=1):
    """Run one superstep on every worker; vertex -> messages received."""
    program.seen.clear()
    for w in workers:
        w.begin_superstep(superstep, {})
        w.run_compute()
    return dict(program.seen)


class TestCombinedBoxes:
    """A combined box is one payload; injected messages stay apart."""

    def _seeded(self, combiner, inject_first):
        program, (w,) = _recording_fleet(gen.ring(4), [0] * 4, combiner)
        if inject_first:
            w.inject(1, 9.0)
        w.emit(0, 1, 0.5)
        w.emit(2, 1, 0.25)
        w.deliver_bucket({1: 1.0 if combiner else [1.0], 2: 4.0 if combiner else [4.0]})
        if not inject_first:
            w.inject(1, 9.0)
        w.inject(1, 8.0)
        w.inject(3, 7.0)
        return program, w

    @pytest.mark.parametrize("inject_first", [False, True])
    def test_injected_messages_follow_the_combined_box(self, inject_first):
        program, w = self._seeded(SumCombiner(), inject_first)
        assert w.in_next == {1: 1.75, 2: 4.0}
        assert w._injected == {1: [9.0, 8.0], 3: [7.0]}
        assert w.buffered_message_count() == 2 + 3
        assert w.in_next_payload_bytes == 2 * 8  # injected carry no bytes
        got = _received(program, [w])
        assert got == {1: [1.75, 9.0, 8.0], 2: [4.0], 3: [7.0]}
        assert w.stats.msgs_in == 5 and w.buffered_message_count() == 0

    @pytest.mark.parametrize("inject_first", [False, True])
    def test_without_a_combiner_every_payload_arrives(self, inject_first):
        program, w = self._seeded(None, inject_first)
        got = _received(program, [w])
        assert got == {1: [0.5, 0.25, 1.0, 9.0, 8.0], 2: [4.0], 3: [7.0]}

    def test_snapshot_restore_keeps_boxes_and_injected(self):
        def buffered(w):  # what a snapshot holds of the plane
            p = plane(w)
            return p["in_next"], p["injected"], p["in_next_bytes"]

        program, w = self._seeded(SumCombiner(), False)
        before = buffered(w)
        snap = w.snapshot()
        w.emit(0, 1, 2.0)
        w.emit(0, 0, 2.0)
        w.inject(1, 5.0)
        assert buffered(w) != before
        w.restore(snap)
        assert buffered(w) == before
        assert _received(program, [w]) == {1: [1.75, 9.0, 8.0], 2: [4.0], 3: [7.0]}
        w.restore(snap)  # the snapshot was not consumed
        assert buffered(w) == before

    def test_migration_moves_box_injected_and_bytes(self):
        program, workers = _recording_fleet(gen.ring(6), [0, 0, 0, 1, 1, 1],
                                            SumCombiner())
        src, dst = workers
        src.emit(0, 1, 0.5)
        src.emit(2, 1, 0.25)
        src.inject(1, 9.0)
        src_bytes, dst_bytes = src.in_next_payload_bytes, dst.in_next_payload_bytes
        dst.import_vertex(1, *src.export_vertex(1))
        assert 1 not in src.in_next and 1 not in src._injected
        assert dst.in_next[1] == 0.75 and dst._injected[1] == [9.0]
        moved = src_bytes - src.in_next_payload_bytes
        assert moved == dst.in_next_payload_bytes - dst_bytes > 0
        assert src.buffered_message_count() == 0
        assert dst.buffered_message_count() == 2
        for w in workers:
            w.assignment = np.array([0, 1, 0, 1, 1, 1])
        assert _received(program, workers) == {1: [0.75, 9.0]}

    def test_migrating_an_injected_message_moves_no_payload_bytes(self):
        # inject() is control plane and never counts payload bytes, so an
        # injected-only vertex carries none across.
        program, workers = _recording_fleet(gen.ring(4), [0, 0, 1, 1],
                                            SumCombiner())
        src, dst = workers
        src.inject(1, 9.0)
        dst.import_vertex(1, *src.export_vertex(1))
        assert dst._injected[1] == [9.0]
        assert src.in_next_payload_bytes == 0.0
        assert dst.in_next_payload_bytes == 0.0

    def test_migration_of_a_vertex_without_a_box(self):
        program, workers = _recording_fleet(gen.ring(4), [0, 0, 1, 1],
                                            SumCombiner())
        workers[1].import_vertex(0, *workers[0].export_vertex(0))
        assert 0 not in workers[1].in_next and not workers[1]._injected
        assert workers[1].in_next_payload_bytes == 0

    def test_pagerank_follows_a_mid_job_migration(self, small_world):
        def run(observers):
            return run_job(JobSpec(
                program=PageRankProgram(12), graph=small_world, num_workers=4,
                observers=observers,
            ))

        checker, policy = InvariantChecker(), DynamicRepartitioner(interval=3)
        moved, plain = run([checker, policy]), run([])
        assert policy.total_moved >= 1 and checker.ok, checker.violations
        assert moved.supersteps == plain.supersteps
        assert np.allclose(moved.values_array(), plain.values_array(),
                           rtol=1e-12, atol=0)


class TestAdjacencyReads:
    def test_degrees_and_neighbours_are_python_ints(self):
        g = gen.rmat(scale=6, edge_factor=4, seed=2)
        n = g.num_vertices
        (w,) = fleet(g, [0] * n, SumCombiner())
        w.begin_superstep(0, {})
        for v in range(n):
            deg = w.effective_out_degree(v)
            assert type(deg) is int and deg == g.out_degree(v)
            w.emit_to_neighbors(v, 1.0)
        assert all(type(k) is int for k in w.in_next)
        indeg = np.bincount(g.indices, minlength=n)
        assert w.in_next == {
            v: float(indeg[v]) for v in g.indices.tolist()
        }

    def test_overlay_replaces_the_csr_slice(self):
        g = gen.ring(5)
        (w,) = fleet(g, [0] * 5, SumCombiner())
        w.request_mutation(0, "add", 3)
        w.request_mutation(0, "remove", 1)
        w.begin_superstep(0, {})
        assert w.effective_out_degree(0) == 1 + g.out_degree(0) - 1
        assert w.effective_out_degree(2) == g.out_degree(2)
        w.emit_to_neighbors(0, 2.0)
        expect = sorted({int(u) for u in g.neighbors(0)} - {1} | {3})
        assert sorted(w.in_next) == expect


def test_pagerank_allocates_no_collectable_garbage():
    """Combined boxes, memoryview adjacency and the bound context leave
    the cyclic collector nothing to do (a list per box took 67 runs)."""
    job = JobSpec(PageRankProgram(10), gen.watts_strogatz(2000, 8, 0.1, seed=7),
                  num_workers=4)
    young = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            young.append(info)

    gc.collect()
    gc.callbacks.append(count)
    try:
        run_job(job)
    finally:
        gc.callbacks.remove(count)
    assert len(young) <= 3, len(young)


class _LoopSendContext:
    """ctx proxy whose ``send_to_neighbors`` is the per-edge loop
    ``BCProgram`` used before it took the bulk path."""

    def __init__(self, inner):
        self._inner = inner

    def send_to_neighbors(self, payload):
        for u in self._inner.out_neighbors:
            self._inner.send(int(u), payload)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class LoopSendBC(BCProgram):
    def compute(self, ctx, state, messages):
        return super().compute(_LoopSendContext(ctx), state, messages)


class SendTo(VertexProgram):
    """Vertex 0 messages vertex ``dst`` in superstep 0."""

    def __init__(self, dst):
        self.dst = dst

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0 and ctx.vertex_id == 0:
            ctx.send(self.dst, 1)
        ctx.vote_to_halt()
        return state


class TestJobLevel:
    @pytest.mark.parametrize(
        "engine,workers", [("sim", 4), ("process", 2)], ids=["sim4", "process2"],
    )
    def test_bulk_bc_equals_loop_bc(self, small_world, engine, workers):
        def run(program):
            controller = SwathController(
                roots=list(range(10)), start_factory=bc_mod.start_messages,
                sizer=StaticSizer(4), initiation=SequentialInitiation(),
            )
            return run_job(
                JobSpec(
                    program=program, graph=small_world, num_workers=workers,
                    initially_active=False, observers=[controller],
                ),
                engine=engine,
            )

        bulk, loop = run(BCProgram()), run(LoopSendBC())
        assert bulk.values == loop.values  # bitwise: same floats, same keys
        assert bulk.supersteps == loop.supersteps
        assert trace_to_dict(bulk.trace) == trace_to_dict(loop.trace)

    @pytest.mark.parametrize("offset", [0, -1], ids=["num_vertices", "minus-one"])
    def test_send_to_unknown_vertex_raises_out_of_run(self, ring10, offset):
        dst = ring10.num_vertices if offset == 0 else -1
        job = JobSpec(program=SendTo(dst), graph=ring10, num_workers=2)
        with pytest.raises(ValueError, match="message to unknown vertex"):
            run_job(job)

    def test_routing_follows_migration(self, small_world):
        roots = range(8)
        checker, policy = InvariantChecker(), DynamicRepartitioner(interval=3)
        res = run_job(
            JobSpec(
                program=BCProgram(), graph=small_world, num_workers=4,
                initially_active=False, observers=[checker, policy],
                initial_messages=bc_mod.start_messages(roots),
            )
        )
        assert policy.total_moved >= 1
        assert policy.migrations[0].superstep < res.supersteps - 1  # mid-job
        assert np.allclose(
            res.values_array(), betweenness_reference(small_world, roots=roots),
            atol=1e-9,
        )
        # no combiner: every buffered message was drained, every superstep
        assert checker.ok, checker.violations
