"""Backend equivalence: the mp backend must be bit-identical to the loop.

The contract under test (docs/parallelism.md): for every supported
configuration, running the same seeded workload through
:class:`~repro.comm.mp_backend.MultiprocBackend` (one OS process per
rank, shared-memory exchanges) and through the in-process
:class:`~repro.comm.backend.LoopBackend` oracle produces *identical*
per-step losses, global gradient norms, ``CommStats`` byte/call
counters, and final parameter digests — not approximately equal,
``==``-equal.  Any drift is a correctness bug in the transport or the
accounting echo, never acceptable noise.

Everything process-spawning is ``@pytest.mark.mp`` and runs under the
SIGALRM deadline from ``conftest.py`` so a wedged rendezvous fails
instead of hanging the suite.
"""

from __future__ import annotations

import glob
import os
import signal

import numpy as np
import pytest

from repro.comm import (
    BACKEND_NAMES,
    CommDivergence,
    LoopBackend,
    MpWorkerFailed,
    ProcessGroup,
    make_backend,
    run_multiproc,
)
from repro.comm.shm import SEGMENT_PREFIX
from repro.utils.blas import blas_threads
from repro.workloads.calibrate import (
    CalibSpec,
    run_mp_training,
    run_training,
)


def shm_leftovers() -> list[str]:
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every test in this module must leave /dev/shm clean."""
    before = shm_leftovers()
    yield
    leaked = [p for p in shm_leftovers() if p not in before]
    assert not leaked, f"leaked shared-memory segments: {leaked}"


# --- the backend seam itself -------------------------------------------------
class TestBackendFactory:
    def test_names(self):
        assert BACKEND_NAMES == ("loop", "mp")

    def test_loop_constructs(self):
        b = make_backend("loop", 4)
        assert isinstance(b, LoopBackend)
        assert b.world_size == 4
        assert b.all_local and b.rank == 0 and b.is_local(3)

    def test_mp_needs_launcher(self):
        # mp endpoints only exist inside an MpSession rank process
        with pytest.raises(ValueError, match="run_multiproc"):
            make_backend("mp", 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            make_backend("nccl", 2)

    def test_bad_world_size(self):
        with pytest.raises(ValueError):
            make_backend("loop", 0)

    def test_group_defaults_to_loop(self):
        pg = ProcessGroup(3)
        assert isinstance(pg.backend, LoopBackend)
        assert pg.all_local

    def test_group_rejects_world_mismatch(self):
        with pytest.raises(ValueError, match="world"):
            ProcessGroup(3, backend=LoopBackend(2))

    def test_fingerprint_digest_is_order_sensitive(self):
        a, b = LoopBackend(2), LoopBackend(2)
        a.note_fingerprint("allgather", ["float32"], [8])
        a.note_fingerprint("reduce_scatter", ["float32"], [8])
        b.note_fingerprint("reduce_scatter", ["float32"], [8])
        b.note_fingerprint("allgather", ["float32"], [8])
        assert a.fingerprint_digest != b.fingerprint_digest


# --- the equivalence matrix --------------------------------------------------
MATRIX = [
    pytest.param(stage, world, offload, id=f"s{stage}-w{world}-{offload}")
    for stage in (2, 3)
    for world in (1, 2, 4)
    for offload in ("gpu", "cpu", "nvme")
]


@pytest.mark.mp
@pytest.mark.parametrize("stage,world,offload", MATRIX)
def test_matrix_bit_identical(stage, world, offload):
    spec = CalibSpec(world=world, steps=2, stage=stage, offload=offload)
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.numerics() == oracle.numerics()
    # the losses really were computed in separate processes
    assert mp_run.transport.get("exchanges", 0) > 0 or world == 1


@pytest.mark.mp
def test_equivalence_under_full_checkers(monkeypatch):
    """REPRO_CHECK=all: ordering fingerprints recorded in every rank
    process must agree with the loop oracle's (the accounting echo keeps
    the gather-path sequences aligned)."""
    monkeypatch.setenv("REPRO_CHECK", "all")
    spec = CalibSpec(world=2, steps=2, check="all")
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.numerics() == oracle.numerics()


OPT_PIPELINE_CELLS = [
    # chunked NVMe stream with the double-buffered pipeline on (tiny
    # chunk so the calibration shards actually stream), delayed update,
    # and both combined
    pytest.param(
        CalibSpec(world=2, steps=2, stage=3, offload="nvme", chunk_numel=512),
        id="pipelined-chunked",
    ),
    pytest.param(
        CalibSpec(world=2, steps=2, stage=3, offload="nvme", delayed_update=True),
        id="delayed-nvme",
    ),
    pytest.param(
        CalibSpec(world=4, steps=2, stage=2, offload="cpu", delayed_update=True,
                  scale_delayed_lr=0.9),
        id="delayed-scaled-cpu",
    ),
    pytest.param(
        CalibSpec(world=2, steps=2, stage=3, offload="nvme", chunk_numel=512,
                  delayed_update=True),
        id="delayed-pipelined-chunked",
    ),
]


@pytest.mark.mp
@pytest.mark.parametrize("spec", OPT_PIPELINE_CELLS)
def test_opt_pipeline_cells_bit_identical(spec):
    """Delayed/pipelined optimizer modes stay loop<->mp bit-identical."""
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.numerics() == oracle.numerics()


@pytest.mark.mp
def test_opt_pipeline_equivalence_under_full_checkers(monkeypatch):
    """The pipelined chunked step under REPRO_CHECK=all: shadow-record
    staging and the commit barrier must satisfy every lifecycle/ordering/
    aio-race rule in both backends, with identical numerics."""
    monkeypatch.setenv("REPRO_CHECK", "all")
    spec = CalibSpec(
        world=2, steps=2, stage=3, offload="nvme", chunk_numel=512,
        delayed_update=True, check="all",
    )
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.numerics() == oracle.numerics()


@pytest.mark.mp
def test_mp_transport_traffic_not_in_commstats():
    """Exchange/rendezvous traffic is transport, not simulated collectives:
    CommStats must match the loop byte-for-byte while the transport
    counters carry the real cross-process traffic."""
    spec = CalibSpec(world=2, steps=2)
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.comm_bytes_by_op == oracle.comm_bytes_by_op
    assert "exchange" not in mp_run.comm_bytes_by_op
    assert mp_run.transport["exchange_bytes"] > 0
    assert mp_run.transport["step_syncs"] == spec.steps


# --- failure protocol --------------------------------------------------------
def _divergent_worker(backend):
    # rank 1 issues an extra collective before the exchange: the
    # barrier-carried digests disagree and the exchange must refuse to
    # deliver data rather than silently mix mismatched streams
    if backend.rank == 1:
        backend.note_fingerprint("allgather", ["float32"], [16])
    try:
        backend.exchange(np.ones(4, dtype=np.float32))
    except CommDivergence:
        return "divergence"
    return "delivered"


@pytest.mark.mp
def test_divergent_sequences_detected():
    out = run_multiproc(2, _divergent_worker, timeout=30.0)
    assert out.results.count("divergence") == 2


def _replayed_worker(backend):
    """One asymmetric fault: rank 1's first forward raises OSError.

    Peers observe the broken rendezvous as CommPeerAbort, everyone takes
    the step-replay tier together, and the replay is bit-identical — so
    the run must still match the loop oracle exactly.
    """
    from repro.workloads import MarkovCorpus, per_rank_batches
    from repro.workloads.calibrate import state_digest

    spec = CalibSpec(world=2, steps=2)
    from repro.workloads.calibrate import build_engine

    with build_engine(spec, comm_backend=backend) as engine:
        if backend.rank == 1:
            orig = engine.model.forward
            fired = []

            def flaky_forward(*a, **k):
                if not fired:
                    fired.append(True)
                    raise OSError("simulated transient device fault")
                return orig(*a, **k)

            engine.model.forward = flaky_forward
        data = per_rank_batches(
            MarkovCorpus(spec.vocab, seed=1),
            world_size=spec.world,
            bsz_per_rank=spec.bsz_per_rank,
            seq=spec.seq,
            seed=2,
        )
        losses = []
        for _ in range(spec.steps):
            losses.append(list(engine.train_step(next(data)).losses))
        return (
            losses,
            engine.step_retries_used,
            state_digest(engine.gather_state()),
        )


@pytest.mark.mp
def test_asymmetric_fault_replays_in_lockstep():
    oracle = run_training(CalibSpec(world=2, steps=2))
    out = run_multiproc(2, _replayed_worker, timeout=60.0)
    (losses0, retries0, digest0), (losses1, retries1, digest1) = out.results
    # both ranks replayed exactly once — the faulting rank via its own
    # OSError, the peer via CommPeerAbort from the broken barrier
    assert (retries0, retries1) == (1, 1)
    assert losses0 == losses1 == oracle.losses
    assert digest0 == digest1 == oracle.state_digest


def _suicidal_worker(backend):
    if backend.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no goodbye
    backend.step_sync()
    return "survived"


@pytest.mark.mp
def test_killed_rank_fails_run_without_shm_leak():
    """SIGKILL mid-step: the launcher must surface a worker failure and
    the parent's cleanup must unlink every shared segment (the autouse
    fixture asserts /dev/shm is clean afterwards)."""
    with pytest.raises(MpWorkerFailed) as err:
        run_multiproc(2, _suicidal_worker, timeout=30.0)
    assert err.value.rank == 1


def _terminal_worker(backend):
    if backend.rank == 0:
        raise RuntimeError("unrecoverable logic error on rank 0")
    backend.step_sync()
    return "unreachable"


@pytest.mark.mp
def test_terminal_error_propagates_worker_traceback():
    with pytest.raises(MpWorkerFailed, match="unrecoverable logic error"):
        run_multiproc(2, _terminal_worker, timeout=30.0)


def _blas_threads_worker(backend):
    return blas_threads()


@pytest.mark.mp
def test_ranks_pin_blas_threads_to_their_share_of_cores():
    """Each rank runs OpenBLAS on its share of the cores, so forked ranks
    do not oversubscribe the host; the parent's own pool is untouched."""
    parent = blas_threads()
    if parent is None:
        pytest.skip("numpy's OpenBLAS thread control is not reachable")
    out = run_multiproc(2, _blas_threads_worker, timeout=30.0)
    assert out.results == [max(1, len(os.sched_getaffinity(0)) // 2)] * 2
    assert blas_threads() == parent


# --- per-rank observability --------------------------------------------------
@pytest.mark.mp
def test_trace_shards_merge_per_rank():
    from repro.obs import merged_chrome_trace

    spec = CalibSpec(world=2, steps=1)
    _, shards = run_mp_training(spec, trace=True)
    assert shards is not None and [s.rank for s in shards] == [0, 1]
    doc = merged_chrome_trace(shards)
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert pids == {0, 1}
    names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert names == {"rank 0", "rank 1"}
    # rank-local exchange spans made it into the merged view
    assert any(
        e.get("name") == "mp:exchange" and e.get("ph") == "X"
        for e in doc["traceEvents"]
    )
