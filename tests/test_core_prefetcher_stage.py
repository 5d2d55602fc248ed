"""Unit tests for the prefetcher optimization object and the PRISMA stage."""

import pytest

from repro.core import ParallelPrefetcher, PrismaStage, TuningSettings
from repro.core.tiering import TieringObject
from repro.dataset import imagenet_like, tiny_dataset
from repro.simcore import DuplicateRequestError, Event, RandomStreams, Simulator
from repro.storage import BlockDevice, Filesystem, PosixLayer, intel_p4600, ramdisk, sata_hdd


def make_env(n_train=32, profile=None):
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, profile or ramdisk()))
    split = tiny_dataset(streams, n_train=n_train, n_val=8)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    return sim, posix, split


class FlakyBackend:
    """Backend wrapper that fails ``read_whole`` for chosen paths."""

    def __init__(self, sim, inner, fail_paths):
        self.sim = sim
        self.inner = inner
        self.fail_paths = set(fail_paths)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def read_whole(self, path):
        if path in self.fail_paths:
            ev = Event(self.sim, name="flaky.read")
            ev.fail(IOError(f"injected read failure: {path}"))
            return ev
        return self.inner.read_whole(path)


# ---------------------------------------------------------------- ParallelPrefetcher
def test_prefetcher_serves_epoch_in_any_order():
    sim, posix, split = make_env()
    pf = ParallelPrefetcher(sim, posix, producers=2, buffer_capacity=64)
    paths = split.train.filenames()
    pf.on_epoch(paths)
    got = {}

    def consumer(path):
        nbytes = yield pf.serve(path)
        got[path] = nbytes

    for path in reversed(paths):
        sim.process(consumer(path))
    sim.run()
    assert len(got) == len(paths)
    assert got[paths[0]] == split.train.size(0)
    assert pf.files_fetched == len(paths)
    assert pf.bytes_fetched == split.train.total_bytes()


def test_prefetcher_declines_uncovered_paths():
    sim, posix, split = make_env()
    pf = ParallelPrefetcher(sim, posix)
    pf.on_epoch(split.train.filenames())
    assert pf.serve("/data/tiny/val/00000000") is None


def test_prefetcher_set_producers_spawns_and_parks():
    sim, posix, split = make_env(n_train=64)
    pf = ParallelPrefetcher(sim, posix, producers=1, buffer_capacity=256, max_producers=8)
    pf.on_epoch(split.train.filenames())

    def controller():
        yield sim.timeout(1e-4)
        pf.set_producers(4)
        yield sim.timeout(1e-4)
        pf.set_producers(2)

    def consumer():
        for path in split.train.filenames():
            yield pf.serve(path)

    sim.process(controller())
    sim.process(consumer())
    sim.run()
    assert pf.allocated_producers.max_seen() <= 4
    assert pf.files_fetched == 64


def test_prefetcher_bounds_validation():
    sim, posix, _ = make_env()
    with pytest.raises(ValueError):
        ParallelPrefetcher(sim, posix, producers=0)
    with pytest.raises(ValueError):
        ParallelPrefetcher(sim, posix, producers=4, max_producers=2)
    pf = ParallelPrefetcher(sim, posix, max_producers=4)
    with pytest.raises(ValueError):
        pf.set_producers(5)
    with pytest.raises(ValueError):
        pf.set_producers(0)


def test_prefetcher_snapshot_contents():
    sim, posix, split = make_env()
    pf = ParallelPrefetcher(sim, posix, producers=2, buffer_capacity=16)
    pf.on_epoch(split.train.filenames())
    sim.run(until=1e-3)
    snap = pf.snapshot()
    assert snap.buffer_capacity == 16
    assert snap.producers_allocated <= 2
    assert snap.bytes_fetched >= 0
    assert snap.time == sim.now


def test_prefetcher_apply_settings():
    sim, posix, split = make_env()
    pf = ParallelPrefetcher(sim, posix, producers=1, buffer_capacity=16, max_producers=8)
    pf.apply_settings(TuningSettings(producers=3, buffer_capacity=64))
    assert pf.target_producers == 3
    assert pf.buffer.capacity == 64


def test_prefetcher_multi_epoch():
    sim, posix, split = make_env(n_train=16)
    pf = ParallelPrefetcher(sim, posix, producers=2, buffer_capacity=32)
    paths = split.train.filenames()

    def run_epochs():
        for epoch in range(3):
            pf.on_epoch(paths)
            for path in paths:
                yield pf.serve(path)

    p = sim.process(run_epochs())
    sim.run(until=p)
    assert pf.files_fetched == 48


def test_prefetcher_read_error_surfaces_to_consumer():
    """A failing backend read fails the consumer's serve() event end to end:
    ``read_errors`` increments and the buffer does not leak a slot."""
    sim, posix, split = make_env(n_train=8)
    paths = split.train.filenames()
    bad = paths[3]
    flaky = FlakyBackend(sim, posix, [bad])
    pf = ParallelPrefetcher(sim, flaky, producers=2, buffer_capacity=4)
    pf.on_epoch(paths)
    outcome = {"served": 0, "failed": []}

    def consumer(path):
        try:
            yield pf.serve(path)
        except IOError as exc:
            outcome["failed"].append((path, str(exc)))
        else:
            outcome["served"] += 1

    for path in paths:
        sim.process(consumer(path))
    sim.run()
    assert outcome["served"] == len(paths) - 1
    assert [p for p, _ in outcome["failed"]] == [bad]
    assert "injected read failure" in outcome["failed"][0][1]
    assert pf.read_errors == 1
    assert pf.files_fetched == len(paths) - 1
    assert pf.buffer.level == 0  # the staged error's slot was reclaimed


def test_prefetcher_duplicate_serve_fails_fast():
    """Regression: a second serve() for an evicted path used to hang forever."""
    sim, posix, split = make_env(n_train=8)
    paths = split.train.filenames()
    pf = ParallelPrefetcher(sim, posix, producers=2, buffer_capacity=8)
    pf.on_epoch(paths)
    outcome = {}

    def scenario():
        yield pf.serve(paths[0])
        try:
            yield pf.serve(paths[0])  # duplicate: already evicted
        except DuplicateRequestError as exc:
            outcome["error"] = str(exc)
        for path in paths[1:]:
            yield pf.serve(path)

    p = sim.process(scenario())
    sim.run(until=p)
    assert p.ok
    assert "already consumed this epoch" in outcome["error"]
    assert pf.buffer.counters.get("duplicate_requests") == 1


def test_prefetcher_capacity_retarget_mid_epoch():
    """Control-plane shrink mid-epoch never evicts; growth admits producers;
    the epoch still completes with every file served exactly once."""
    sim, posix, split = make_env(n_train=64)
    pf = ParallelPrefetcher(sim, posix, producers=4, buffer_capacity=32, max_producers=8)
    paths = split.train.filenames()
    pf.on_epoch(paths)
    observed = {}

    def controller():
        # Let the producers race ahead and fill the buffer.
        yield sim.timeout(5e-4)
        level_before = pf.buffer.level
        pf.apply_settings(TuningSettings(buffer_capacity=2))
        observed["shrink"] = (level_before, pf.buffer.level)
        assert pf.buffer.capacity == 2
        yield sim.timeout(5e-4)
        pf.apply_settings(TuningSettings(buffer_capacity=64))
        observed["grown_capacity"] = pf.buffer.capacity

    def consumer():
        yield sim.timeout(1e-3)
        for path in paths:
            yield pf.serve(path)

    sim.process(controller())
    p = sim.process(consumer())
    sim.run(until=p)
    shrunk_before, shrunk_after = observed["shrink"]
    assert shrunk_after == shrunk_before  # shrink never evicts staged samples
    assert observed["grown_capacity"] == 64
    assert pf.files_fetched == 64
    assert pf.buffer.level == 0


# ---------------------------------------------------------------- PrismaStage
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefetcher_full_buffer_does_not_starve_demanded_path(seed):
    """Eight producers over a 16-sample buffer (both inside the autotuner's
    bounds): siblings fill the buffer with later paths while the demanded
    path's put waits behind them.  The demanded put must be admitted."""
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
    split = imagenet_like(RandomStreams(seed), scale=2000)
    split.train.materialize(fs)
    pf = ParallelPrefetcher(sim, PosixLayer(sim, fs), producers=8, buffer_capacity=16)
    paths = split.train.filenames()
    pf.on_epoch(paths)
    served = []

    def consumer():
        for path in paths:
            yield pf.serve(path)
            served.append(path)

    sim.process(consumer())
    sim.run()
    assert served == paths
    assert pf.buffer._store.peak_items <= 16 + 1  # capacity + consumers


def test_stage_posix_facade_roundtrip():
    sim, posix, split = make_env()
    pf = ParallelPrefetcher(sim, posix, producers=2, buffer_capacity=64)
    stage = PrismaStage(sim, posix, [pf])
    stage.load_epoch(split.train.filenames())
    path = split.train.path(0)
    fd = stage.open(path)
    assert stage.fstat_size(fd) == split.train.size(0)

    ev = stage.pread(fd, split.train.size(0), 0)
    sim.run(until=ev)
    assert ev.value == split.train.size(0)
    stage.close(fd)
    assert stage.counters.get("optimized_reads") == 1


def test_stage_falls_back_for_uncovered_paths():
    sim, posix, split = make_env()
    pf = ParallelPrefetcher(sim, posix, producers=1, buffer_capacity=8)
    stage = PrismaStage(sim, posix, [pf])
    stage.load_epoch(split.train.filenames())
    val_path = split.validation.path(0)
    ev = stage.read_whole(val_path)
    sim.run(until=ev)
    assert ev.value == split.validation.size(0)
    assert stage.counters.get("fallback_reads") == 1


def test_stage_partial_reads_bypass_optimizations():
    sim, posix, split = make_env()
    pf = ParallelPrefetcher(sim, posix, producers=1, buffer_capacity=8)
    stage = PrismaStage(sim, posix, [pf])
    stage.load_epoch(split.train.filenames())
    path = split.train.path(1)
    fd = stage.open(path)
    ev = stage.pread(fd, 100, 50)  # offset != 0 -> raw backend pread
    sim.run(until=ev)
    assert ev.value == 100
    assert stage.counters.get("fallback_reads") == 1


def test_stage_sequential_read_advances_offset():
    sim, posix, split = make_env()
    stage = PrismaStage(sim, posix, [])
    path = split.train.path(0)
    size = split.train.size(0)
    fd = stage.open(path)

    def scenario():
        first = yield stage.read(fd, size)
        second = yield stage.read(fd, size)
        return first, second

    p = sim.process(scenario())
    sim.run(until=p)
    assert p.value[0] == size
    assert p.value[1] == 0  # EOF


def test_stage_bad_fd():
    from repro.storage import BadFileDescriptor

    sim, posix, _ = make_env()
    stage = PrismaStage(sim, posix, [])
    with pytest.raises(BadFileDescriptor):
        stage.close(12345)


def test_stage_control_interface():
    sim, posix, split = make_env()
    pf = ParallelPrefetcher(sim, posix, producers=1, buffer_capacity=8, max_producers=8)
    stage = PrismaStage(sim, posix, [pf])
    snaps = stage.control_snapshot()
    assert len(snaps) == 1
    stage.control_apply(TuningSettings(producers=4))
    assert pf.target_producers == 4


def test_stage_without_optimizations_is_passthrough():
    sim, posix, split = make_env()
    stage = PrismaStage(sim, posix, [])
    ev = stage.read_whole(split.train.path(0))
    sim.run(until=ev)
    assert ev.value == split.train.size(0)
    assert stage.counters.get("fallback_reads") == 1


# ---------------------------------------------------------------- TieringObject
def make_tiering_env():
    sim, posix, split = make_env(n_train=8, profile=sata_hdd())
    fast_fs = Filesystem(sim, BlockDevice(sim, ramdisk(), name="fast"), name="fastfs")
    tier = TieringObject(
        sim, posix, fast_fs, fast_capacity_bytes=split.train.total_bytes() * 2,
        promote_after=2,
    )
    return sim, tier, split


def test_tiering_promotes_after_threshold():
    sim, tier, split = make_tiering_env()
    path = split.train.path(0)

    def scenario():
        yield tier.serve(path)  # 1st access: slow, counts
        yield tier.serve(path)  # 2nd: slow, triggers promotion
        yield sim.timeout(1.0)  # let the background copy finish
        yield tier.serve(path)  # 3rd: fast tier

    p = sim.process(scenario())
    sim.run(until=p)
    assert tier.counters.get("promotions") == 1
    assert tier.counters.get("fast_hits") == 1
    assert tier.resident_files == 1


def test_tiering_fast_hits_are_faster():
    sim, tier, split = make_tiering_env()
    path = split.train.path(0)

    def scenario():
        t0 = sim.now
        yield tier.serve(path)
        slow = sim.now - t0
        yield tier.serve(path)
        yield sim.timeout(1.0)
        t0 = sim.now
        yield tier.serve(path)
        fast = sim.now - t0
        return slow, fast

    p = sim.process(scenario())
    sim.run(until=p)
    slow, fast = p.value
    assert fast < slow / 5


def test_tiering_eviction_respects_capacity():
    sim, posix, split = make_env(n_train=8, profile=sata_hdd())
    fast_fs = Filesystem(sim, BlockDevice(sim, ramdisk(), name="fast"), name="fastfs")
    one_file = split.train.size(0)
    tier = TieringObject(
        sim, posix, fast_fs, fast_capacity_bytes=one_file * 3 // 2, promote_after=1
    )

    def scenario():
        for i in range(4):
            yield tier.serve(split.train.path(i))
        yield sim.timeout(2.0)

    sim.process(scenario())
    sim.run()
    assert tier.resident_bytes <= one_file * 3 // 2
    assert tier.counters.get("demotions") >= 1


def test_tiering_knobs_via_settings():
    sim, tier, split = make_tiering_env()
    tier.apply_settings(TuningSettings(extra={"promote_after": 5}))
    assert tier.promote_after == 5
    with pytest.raises(ValueError):
        tier.apply_settings(TuningSettings(extra={"promote_after": 0}))
    with pytest.raises(ValueError):
        tier.apply_settings(TuningSettings(extra={"fast_capacity_bytes": -1}))


def test_tiering_in_stage_composes_with_fallback():
    sim, tier, split = make_tiering_env()
    posix = tier.backend
    stage = PrismaStage(sim, posix, [tier])
    path = split.train.path(0)

    def scenario():
        yield stage.read_whole(path)
        yield stage.read_whole(path)
        yield sim.timeout(1.0)
        yield stage.read_whole(path)

    p = sim.process(scenario())
    sim.run(until=p)
    assert tier.fast_tier_hit_rate() > 0
