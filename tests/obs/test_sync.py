"""Cross-process metric marshalling and instrument thread-safety."""

import threading

from repro.obs import (
    MetricsRegistry,
    apply_snapshot,
    snapshot_registry,
    to_json_dict,
)


def registries_equal(a: MetricsRegistry, b: MetricsRegistry) -> bool:
    return to_json_dict(a) == to_json_dict(b)


class TestSnapshotRoundtrip:
    def make_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("c_total", help="c").inc(5)
        reg.counter("lc_total", help="lc", worker="0").inc(2)
        reg.counter("lc_total", help="lc", worker="1").inc(7)
        reg.gauge("g", help="g").set(3.5)
        h = reg.histogram("h_seconds", help="h", buckets=(0.1, 1.0, 10.0))
        h.observe(0.05)
        h.observe(5.0)
        return reg

    def test_full_snapshot_replays_into_empty_registry(self):
        src = self.make_registry()
        snap = snapshot_registry(src)
        dst = MetricsRegistry()
        apply_snapshot(dst, snap)
        assert registries_equal(src, dst)

    def test_snapshot_is_picklable(self):
        import pickle

        snap = snapshot_registry(self.make_registry())
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestThreadSafety:
    """The ThreadedBSPEngine contract: instrument mutation (and lazy
    creation through the registry) is safe from pooled worker threads."""

    THREADS = 8
    ITERS = 2000

    def hammer(self, fn):
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            for i in range(self.ITERS):
                fn(i)

        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_inc_is_atomic(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", help="t")
        self.hammer(lambda i: c.inc())
        assert c.value == self.THREADS * self.ITERS

    def test_histogram_observe_is_atomic(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds", help="t", buckets=(10.0,))
        self.hammer(lambda i: h.observe(1.0))
        assert h.count == self.THREADS * self.ITERS
        assert h.sum == float(self.THREADS * self.ITERS)
        assert h.counts[0] == self.THREADS * self.ITERS

    def test_concurrent_lazy_creation_yields_one_instrument(self):
        reg = MetricsRegistry()
        self.hammer(
            lambda i: reg.counter("lazy_total", help="t", k=str(i % 4)).inc()
        )
        collected = {
            name: insts for name, _, _, insts in reg.collect()
        }
        assert len(collected["lazy_total"]) == 4
        assert sum(i.value for i in collected["lazy_total"]) == (
            self.THREADS * self.ITERS
        )
