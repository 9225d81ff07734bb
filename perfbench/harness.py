"""Workloads, the timed closed loop, the loop oracle and host facts.

Every workload trains the same seeded GPT (4 layers, hidden 128, 4 heads,
vocab 128, activation checkpointing on) at world 2 with ZeRO stage 3,
a static loss scale of 1.0 and every other engine setting at its
default.  The loop is closed: the next ``train_step`` starts when the
previous one returns.  See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from layertrace import KERNEL_CATEGORIES, STEP, LayerTracer

WORLD = 2
#: Timed steps per window when ``--seconds`` would give fewer.  Step times
#: shift with the host's load from one run to the next; a longer window
#: averages over more of it, at up to 1 s of run time per step.
MIN_STEPS = 60
#: Step-time tail: with at least MIN_STEPS steps, the 75th percentile has
#: 15 or more samples beyond it; a fixed percentile stays comparable when
#: a faster step makes ``--seconds`` ask for a longer window.
TAIL_PCT = 75.0
#: Untimed steps before the window: the first pays per-process BLAS start-up
#: and the prefetcher's trace-recording iteration; the others estimate the
#: step time that sizes the window.
WARMUP_STEPS = 3
#: Set-ups timed per run, all after the oracle and canary: by then the
#: process has imported everything and its allocator has grown to the
#: workload's size, so each set-up does the same work.  A
#: ``zero3-resident`` set-up is pure CPU work that takes about 10 ms or
#: about 16 ms with the host's load, which keeps one level for up to a
#: second.  Back-to-back set-ups sample one level; a pause before each
#: samples several.
SETUP_REPS = 21
SETUP_PAUSE_S = 0.25
#: Windows are whole cycles of this many steps; ``tokens_per_s`` is the
#: median over cycles, so a short stall elsewhere on the host moves it less.
#: On ``zero3-nvme`` each cycle ends with one checkpoint save.
CYCLE_STEPS = 10
#: Canary: a fixed run whose per-step losses are committed in
#: ``reference.json``.  The oracle shares the candidate's kernels, so only
#: this catches a kernel that computes wrong numbers.  Computing every
#: linear layer in float64 moved a canary loss by 1e-7 of its value; a
#: GELU 0.1% off moved one by 6e-5, a layernorm 0.01% off by 4e-6.
CANARY_SEED = 0
CANARY_STEPS = 3
CANARY_RTOL = 1e-6
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    offload: str  # "gpu" (resident) or "nvme": params, grads and optimizer state
    backend: str  # "loop" (ranks in one process) or "mp" (one process per rank)
    bsz: int  # sequences per rank per step
    seq: int  # tokens per sequence
    chunk_numel: Optional[int] = None  # optimizer streaming chunk (None = default)
    saves: bool = False  # save_checkpoint at the end of every cycle of timed steps
    stage: int = 3  # ZeRO stage

    @property
    def tokens_per_step(self) -> int:
        return WORLD * self.bsz * self.seq


WORKLOADS = {
    w.name: w
    for w in (
        Workload("zero3-resident", "gpu", "loop", bsz=8, seq=32),
        Workload("zero3-nvme", "nvme", "loop", bsz=2, seq=16,
                 chunk_numel=16384, saves=True),
        Workload("zero3-mp", "gpu", "mp", bsz=8, seq=32),
    )
}


#: Per-layer metrics of a traced run: (name, unit, better).  Times and
#: counts are per optimizer step; under mp, the mean over rank processes.
LAYER_METRICS = [
    *[(f"nn.functional.{c}.self_ms", "ms", "lower") for c in KERNEL_CATEGORIES],
    ("nn.functional.matmul.calls", "count", "lower"),
    ("nn.functional.matmul.gflop", "GFLOP", "lower"),
    ("nn.checkpoint.self_ms", "ms", "lower"),
    ("nn.checkpoint.calls", "count", "lower"),
    ("core.partition.gather.self_ms", "ms", "lower"),
    ("core.partition.gather.calls", "count", "lower"),
    ("core.partition.release.self_ms", "ms", "lower"),
    ("core.partition.release.calls", "count", "lower"),
    *[(f"comm.group.{op}.{m}", u, "lower")
      for op in ("allgather", "reduce_scatter")
      for m, u in (("self_ms", "ms"), ("calls", "count"), ("bytes", "bytes"))],
    *[(f"core.offload.{op}.{m}", u, "lower")
      for op in ("fetch", "prefetch", "stash")
      for m, u in (("self_ms", "ms"), ("calls", "count"))],
    ("core.prefetch.hit_ratio", "ratio", "higher"),
    ("core.offload.pinned_peak_bytes", "bytes", "lower"),
    ("core.bucket.add.self_ms", "ms", "lower"),
    ("core.bucket.flush.self_ms", "ms", "lower"),
    ("core.bucket.flushes", "count", "lower"),
    ("core.zero_optimizer.step.busy_ms", "ms", "lower"),
    ("core.zero_optimizer.step.self_ms", "ms", "lower"),
    ("optim.adam.self_ms", "ms", "lower"),
    ("optim.adam.elements", "count", "lower"),
    *[(f"nvme.store.{op}.{m}", u, "lower")
      for op in ("read", "write", "promote")
      for m, u in (("self_ms", "ms"), ("bytes", "bytes"))],
    ("nvme.store.wait_ms", "ms", "lower"),
    ("nvme.store.retries", "count", "lower"),
    ("comm.mp_backend.exchange.self_ms", "ms", "lower"),
    ("comm.mp_backend.exchange.calls", "count", "lower"),
    ("comm.mp_backend.exchange.bytes", "bytes", "lower"),
    ("comm.mp_backend.barrier_wait_ms", "ms", "lower"),
    ("comm.mp_backend.step_sync_ms", "ms", "lower"),
    ("comm.mp_backend.step_sync.self_ms", "ms", "lower"),
    ("core.checkpoint_io.save.self_ms", "ms", "lower"),
    ("core.checkpoint_io.save.bytes", "bytes", "lower"),
    ("core.engine.step_ms", "ms", "lower"),
    ("core.engine.residual_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]



def self_time_metrics() -> list[str]:
    """Per-layer metrics that are span self times; with
    ``core.engine.residual_ms`` they add up to ``core.engine.step_ms``."""
    return [n for n, _, _ in LAYER_METRICS
            if n.endswith(".self_ms") or n == "nvme.store.wait_ms"]


@dataclass(frozen=True)
class Settings:
    seconds: float
    trace: bool = False


def host_facts() -> dict:
    """Cores, interpreter and numpy versions, and the BLAS numpy uses.

    The thread count is read from numpy's bundled OpenBLAS and left at the
    library default (see README.md).
    """
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": None,
    }
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    libs = sorted(glob.glob(os.path.join(libs_dir, "libscipy_openblas*.so")))
    if libs:
        lib = ctypes.CDLL(libs[0])
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = lib.scipy_openblas_get_config64_
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        facts["blas"] = get_config().decode().strip()
        facts["blas_threads"] = int(get_threads())
    return facts


# --- engine and inputs --------------------------------------------------------------
def build_engine(wl: Workload, seed: int, spool: str, backend=None):
    from repro.core import (
        OffloadConfig, OffloadDevice, ZeroConfig, ZeroInfinityEngine, ZeroStage,
    )
    from repro.nn import GPTModel, TransformerConfig
    from repro.utils.rng import seeded_rng

    model_cfg = TransformerConfig(
        num_layers=4, hidden_dim=128, num_heads=4, vocab_size=128,
        max_seq=wl.seq, activation_checkpointing=True,
    )
    dev = OffloadDevice(wl.offload)
    chunk = {} if wl.chunk_numel is None else {"optimizer_chunk_numel": wl.chunk_numel}
    config = ZeroConfig(
        world_size=WORLD,
        stage=ZeroStage(wl.stage),
        offload=OffloadConfig(
            param_device=dev, grad_device=dev, optimizer_device=dev,
            nvme_dir=spool, **chunk,
        ),
        loss_scale=1.0,
    )
    return ZeroInfinityEngine(
        config,
        model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(seed)),
        comm_backend=backend,
    )


def make_batches(wl: Workload, seed: int, count: int) -> list:
    """The first ``count`` per-rank batch lists of the seed's data stream."""
    from repro.workloads import MarkovCorpus, per_rank_batches

    stream = per_rank_batches(
        MarkovCorpus(128, seed=seed), world_size=WORLD,
        bsz_per_rank=wl.bsz, seq=wl.seq, seed=seed + 1,
    )
    return [next(stream) for _ in range(count)]


def digest(engine) -> str:
    from repro.workloads.calibrate import state_digest

    return state_digest(engine.gather_state())


def _agree_max(engine, value: float) -> float:
    """Max of ``value`` over rank processes (identity when all ranks are local)."""
    if engine.comm.all_local:
        return value
    return float(np.max(engine.comm.exchange(np.asarray([value], dtype=np.float64))))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _window_counters(engine) -> dict:
    rep = engine.report()
    out = {
        "prefetch_hits": rep.prefetch_hits,
        "prefetch_misses": rep.prefetch_misses,
        "bucket_flushes": rep.bucket_flushes,
        "retries": rep.io_read_retries + rep.io_write_retries + rep.checksum_refetches,
        "pinned_peak_bytes": rep.pinned_peak_bytes,
        "barrier_wait_s": 0.0,
    }
    stats = getattr(engine.comm.backend, "transport_stats", None)
    if stats is not None:
        out["barrier_wait_s"] = stats()["wait_s"]
    return out


# --- the closed loop ---------------------------------------------------------------
def _window(engine, wl: Workload, batches: list, spool: str,
            tracer: Optional[LayerTracer]) -> dict:
    from repro.core import checkpoint_io

    ckpt_dir = os.path.join(spool, "ckpt")
    times, losses = [], []
    failed = 0
    t_start = time.perf_counter()
    for i, batch in enumerate(batches):
        retries = engine.step_retries_used
        t = time.perf_counter()
        if tracer is not None:
            tracer.step = i
        with tracer.span(STEP) if tracer is not None else nullcontext():
            result = engine.train_step(batch)
            if wl.saves and (i + 1) % CYCLE_STEPS == 0:
                checkpoint_io.save_checkpoint(engine, ckpt_dir)
        times.append(time.perf_counter() - t)
        losses.append(list(result.losses))
        failed += int(result.skipped or engine.step_retries_used > retries)
    wall = time.perf_counter() - t_start
    return {"times": times, "wall": wall, "losses": losses, "failed": failed}


def _layer_metrics(tracer: LayerTracer, steps: int, before: dict, after: dict) -> dict:
    """Per-step per-layer metrics of one traced window (see README.md)."""
    s = tracer.summarize(steps)
    per = 1.0 / steps
    self_ms, busy, calls, cnt = s["self_ms"], s["busy_ms"], s["calls"], s["counters"]
    m = {}
    for cat in KERNEL_CATEGORIES:
        m[f"nn.functional.{cat}.self_ms"] = self_ms.get(f"nn.functional.{cat}", 0.0)
    m["nn.functional.matmul.calls"] = cnt.get("nn.functional.matmul.calls", 0.0)
    m["nn.functional.matmul.gflop"] = cnt.get("nn.functional.matmul.gflop", 0.0)
    m["nn.checkpoint.self_ms"] = self_ms.get("nn.checkpoint", 0.0)
    m["nn.checkpoint.calls"] = calls.get("nn.checkpoint", 0.0)
    for g in ("core.partition.gather", "core.partition.release"):
        m[f"{g}.self_ms"] = self_ms.get(g, 0.0)
        m[f"{g}.calls"] = calls.get(g, 0.0)
    for op in ("allgather", "reduce_scatter"):
        g = f"comm.group.{op}"
        m[f"{g}.self_ms"] = self_ms.get(g, 0.0)
        m[f"{g}.calls"] = calls.get(g, 0.0)
        m[f"{g}.bytes"] = cnt.get(f"{g}.bytes", 0.0)
    for op in ("fetch", "prefetch", "stash"):
        g = f"core.offload.{op}"
        m[f"{g}.self_ms"] = self_ms.get(g, 0.0)
        m[f"{g}.calls"] = calls.get(g, 0.0)
    hits = after["prefetch_hits"] - before["prefetch_hits"]
    misses = after["prefetch_misses"] - before["prefetch_misses"]
    m["core.prefetch.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["core.offload.pinned_peak_bytes"] = float(after["pinned_peak_bytes"])
    m["core.bucket.add.self_ms"] = self_ms.get("core.bucket.add", 0.0)
    m["core.bucket.flush.self_ms"] = self_ms.get("core.bucket.flush", 0.0)
    m["core.bucket.flushes"] = (after["bucket_flushes"] - before["bucket_flushes"]) * per
    m["core.zero_optimizer.step.busy_ms"] = busy.get("core.zero_optimizer.step", 0.0)
    m["core.zero_optimizer.step.self_ms"] = self_ms.get("core.zero_optimizer.step", 0.0)
    m["optim.adam.self_ms"] = self_ms.get("optim.adam", 0.0)
    m["optim.adam.elements"] = cnt.get("optim.adam.elements", 0.0)
    for op in ("read", "write", "promote"):
        g = f"nvme.store.{op}"
        m[f"{g}.self_ms"] = self_ms.get(g, 0.0)
        m[f"{g}.bytes"] = cnt.get(f"{g}.bytes", 0.0)
    m["nvme.store.wait_ms"] = self_ms.get("nvme.store.wait", 0.0)
    m["nvme.store.retries"] = (after["retries"] - before["retries"]) * per
    g = "comm.mp_backend.exchange"
    m[f"{g}.self_ms"] = self_ms.get(g, 0.0)
    m[f"{g}.calls"] = calls.get(g, 0.0)
    m[f"{g}.bytes"] = cnt.get(f"{g}.bytes", 0.0)
    m["comm.mp_backend.barrier_wait_ms"] = (
        (after["barrier_wait_s"] - before["barrier_wait_s"]) * 1e3 * per
    )
    m["comm.mp_backend.step_sync_ms"] = busy.get("comm.mp_backend.step_sync", 0.0)
    m["comm.mp_backend.step_sync.self_ms"] = self_ms.get("comm.mp_backend.step_sync", 0.0)
    m["core.checkpoint_io.save.self_ms"] = self_ms.get("core.checkpoint_io.save", 0.0)
    m["core.checkpoint_io.save.bytes"] = cnt.get("core.checkpoint_io.save.bytes", 0.0)
    m["core.engine.step_ms"] = s["step_ms"]
    m["core.engine.residual_ms"] = self_ms.get(STEP, 0.0)
    m["trace.off_thread_spans"] = float(s["off_thread_spans"])
    return m


def drive(wl: Workload, seed: int, settings: Settings, spool: str, out_dir: str,
          backend, t_launch: float) -> dict:
    """Set up one engine, warm it, run the timed window(s); one rank's view.

    Under the mp backend this runs in every rank process; the window size
    is agreed across ranks so each issues the same collectives.
    """
    engine, setup_s = _set_up(wl, seed, spool, backend, t_launch)
    try:
        warm = []
        losses = []
        for batch in make_batches(wl, seed, WARMUP_STEPS):
            t = time.perf_counter()
            losses.append(list(engine.train_step(batch).losses))
            warm.append(time.perf_counter() - t)
        est = _agree_max(engine, statistics.median(warm[1:] or warm))
        n = max(MIN_STEPS, math.ceil(settings.seconds / est))
        windows = 2 if settings.trace else 1
        if settings.trace:
            # an untraced and a traced window of half the steps each, so a
            # traced run costs what an untraced one does
            n = math.ceil(n / 2)
        n = CYCLE_STEPS * math.ceil(n / CYCLE_STEPS)
        batches = make_batches(wl, seed, WARMUP_STEPS + windows * n)[WARMUP_STEPS:]

        _settle(wl)
        timed = _window(engine, wl, batches[:n], spool, None)
        losses += timed["losses"]
        out = {
            "setup_s": setup_s, "steps": n, "times": timed["times"],
            "wall": timed["wall"], "failed": timed["failed"],
            "peak_rss_mb": _peak_rss_mb(),
        }
        if settings.trace:
            tracer = LayerTracer()
            tracer.install()
            before = _window_counters(engine)
            _settle(wl)
            try:
                traced = _window(engine, wl, batches[n:], spool, tracer)
            finally:
                tracer.uninstall()
            after = _window_counters(engine)
            losses += traced["losses"]
            rank = "" if backend is None else f"-rank{backend.rank}"
            tracer.write_jsonl(os.path.join(out_dir, f"spans-{wl.name}-seed{seed}{rank}.jsonl"))
            out["traced_wall"] = traced["wall"]
            out["failed"] += traced["failed"]
            out["layers"] = _layer_metrics(tracer, n, before, after)
            out["peak_rss_mb"] = _peak_rss_mb()
        out["losses"] = losses
        out["digest"] = digest(engine)
        return out
    finally:
        engine.close()


def _settle(wl: Workload) -> None:
    """Flush dirty pages so a spool workload's timing does not inherit
    write-back of an earlier run or phase."""
    if wl.offload == "nvme":
        os.sync()


def _set_up(wl: Workload, seed: int, spool: str, backend, t_launch: float) -> tuple:
    """(engine ready to step, seconds since ``t_launch``)."""
    engine = build_engine(wl, seed, spool, backend)
    try:
        engine.optimizer.initialize_states()
        _agree_max(engine, 0.0)  # every rank is constructed
    except BaseException:
        engine.close()
        raise
    return engine, time.perf_counter() - t_launch


def _setup_only(wl: Workload, seed: int, spool: str, backend, t_launch: float) -> float:
    """One throwaway set-up; its memory is reclaimed before the next one."""
    engine, seconds = _set_up(wl, seed, spool, backend, t_launch)
    engine.close()
    del engine
    gc.collect()
    return seconds


def oracle(wl: Workload, seed: int, steps: int, spool: str) -> dict:
    """Loop backend, no offload, ZeRO stage 2; same model, seed and batches.

    Stage 2 keeps parameters whole, so the oracle takes neither the
    candidate's gather/release path nor its offload or mp exchange, and
    still yields the same losses and state digest bit for bit.
    """
    ref = replace(wl, offload="gpu", backend="loop", chunk_numel=None, saves=False, stage=2)
    engine = build_engine(ref, seed, spool)
    try:
        losses = [list(engine.train_step(b).losses) for b in make_batches(ref, seed, steps)]
        return {"losses": losses, "digest": digest(engine)}
    finally:
        engine.close()


def canary_losses(spool: str) -> list:
    """Per-step losses of the canary: ``zero3-nvme``'s shape, resident, loop."""
    wl = replace(WORKLOADS["zero3-nvme"], offload="gpu", chunk_numel=None, saves=False)
    engine = build_engine(wl, CANARY_SEED, spool)
    try:
        return [list(engine.train_step(b).losses)
                for b in make_batches(wl, CANARY_SEED, CANARY_STEPS)]
    finally:
        engine.close()


def write_reference() -> None:
    """Record the canary's losses in ``reference.json``.  Run it only when a
    change is meant to alter the program's numerics, as
    ``python3 -c 'import sys; sys.path[:0] = ["src", "perfbench"];
    import harness; harness.write_reference()'`` from the repository root."""
    with tempfile.TemporaryDirectory() as spool:
        losses = canary_losses(spool)
    with open(REFERENCE, "w") as f:
        json.dump({"seed": CANARY_SEED, "steps": CANARY_STEPS, "losses": losses}, f, indent=1)
        f.write("\n")


def check_canary(losses: list, reference: list) -> list[str]:
    """Mismatches between the canary's losses and the committed ones."""
    if len(losses) != len(reference) or not np.allclose(
            losses, reference, rtol=CANARY_RTOL, atol=0.0):
        return [f"canary losses {losses} != reference {reference}"
                f" (rtol {CANARY_RTOL})"]
    return []


def check_outputs(candidate: dict, reference: dict) -> list[str]:
    """Mismatches between a run's per-step losses/digest and the oracle's."""
    problems = []
    got, want = candidate["losses"], reference["losses"]
    if len(got) != len(want):
        problems.append(f"ran {len(got)} steps, oracle {len(want)}")
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            problems.append(f"step {i} losses {a} != oracle {b}")
            break
    if candidate["digest"] != reference["digest"]:
        problems.append(
            f"state digest {candidate['digest'][:16]} != oracle {reference['digest'][:16]}"
        )
    return problems


# --- one benchmark run ---------------------------------------------------------------
def _on_ranks(wl: Workload, spool: str, fn) -> list:
    """``fn(spool, backend, t_launch)`` on every rank: in this process for
    the loop backend, one process per rank for mp."""
    _settle(wl)
    t_launch = time.perf_counter()
    if wl.backend == "loop":
        return [fn(spool, None, t_launch)]

    from repro.comm import run_multiproc

    def on_rank(backend):
        path = os.path.join(spool, f"rank{backend.rank}")
        os.makedirs(path, exist_ok=True)
        return fn(path, backend, t_launch)

    return run_multiproc(WORLD, on_rank, timeout=60.0).results


def _setups(wl: Workload, seed: int, tmp: str, count: int) -> list[float]:
    """Times of ``count`` throwaway set-ups (the slowest rank's, under mp),
    each in a fresh spool that is removed before the next one starts."""
    times = []
    for _ in range(count):
        time.sleep(SETUP_PAUSE_S)
        spool = tempfile.mkdtemp(dir=tmp)
        times.append(max(_on_ranks(
            wl, spool, lambda path, b, t: _setup_only(wl, seed, path, b, t))))
        shutil.rmtree(spool)
    return times


def run(wl: Workload, seed: int, settings: Settings, root: str) -> dict:
    """Run one workload end to end; returns metrics, checks and host facts."""
    work = os.path.join(root, ".perfbench_run")
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="spool-", dir=work)
    try:
        spool = tempfile.mkdtemp(dir=tmp)
        results = _on_ranks(wl, spool, lambda path, b, t: drive(
            wl, seed, settings, path, out_dir, b, t))
        shutil.rmtree(spool)
        lead = results[0]
        steps = WARMUP_STEPS + lead["steps"] * (2 if settings.trace else 1)
        reference = oracle(wl, seed, steps, tempfile.mkdtemp(dir=tmp))
        canary = canary_losses(tempfile.mkdtemp(dir=tmp))
        _setups(wl, seed, tmp, 1)  # the first set-up after training is slower
        setups = _setups(wl, seed, tmp, SETUP_REPS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(REFERENCE) as f:
        committed = json.load(f)
    problems = check_outputs(lead, reference)
    problems += check_canary(canary, committed["losses"])
    for rank, other in enumerate(results[1:], start=1):
        if (other["losses"], other["digest"]) != (lead["losses"], lead["digest"]):
            problems.append(f"rank {rank} disagrees with rank 0")

    times_ms = np.asarray(lead["times"]) * 1e3
    n = lead["steps"]
    tokens = n * wl.tokens_per_step
    cycles = [times_ms[i:i + CYCLE_STEPS] for i in range(0, n, CYCLE_STEPS)]
    metrics = {
        "tokens_per_s": (statistics.median(
            len(c) * wl.tokens_per_step / (c.sum() / 1e3) for c in cycles), "tokens/s"),
        "step_ms_p50": (float(np.percentile(times_ms, 50)), "ms"),
        "step_ms_tail": (float(np.percentile(times_ms, TAIL_PCT)), "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_step_ratio": (1.0 - lead["failed"] / (n * (2 if settings.trace else 1)), "ratio"),
    }
    report = {
        "workload": wl.name, "seed": seed, "steps": n, "warmup_steps": WARMUP_STEPS,
        "tail_percentile": TAIL_PCT,
        "beyond_tail": int(np.sum(times_ms > metrics["step_ms_tail"][0])),
        "setup_reps": setups, "first_setup_s": lead["setup_s"], "step_ms": times_ms.tolist(),
        "host": host_facts(), "metrics": metrics,
        "attempted": n * (2 if settings.trace else 1), "failed": lead["failed"],
        "problems": problems, "digest": lead["digest"],
    }
    if settings.trace:
        layer_dicts = [r["layers"] for r in results]
        layers = {k: float(np.mean([d[k] for d in layer_dicts])) for k in layer_dicts[0]}
        untraced = tokens / lead["wall"]
        traced = tokens / lead["traced_wall"]
        layers["trace.overhead_ratio"] = traced / untraced
        report["layers"] = layers
    return report
