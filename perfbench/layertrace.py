"""Per-layer spans recorded from the benchmark's own wrappers.

:class:`LayerTracer` replaces public functions and methods of the
program's layers with thin wrappers that record one span per call
(name, start, end, parent span, step id, thread) in memory.  Nothing
under ``src/`` changes: the wrappers are installed on the imported
modules and classes for the traced window only and removed afterwards.

A span's *self time* is its duration minus the time its direct child
spans cover, so on one thread the self times of every span inside a
step, plus the step span's own self time (``core.engine.residual_ms``),
add up to the step's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

#: Metric group of every ``nn.functional`` kernel; self time is reported
#: per group.  ``linear_fwd``/``linear_bwd`` are GEMMs around
#: :func:`~repro.nn.functional.matmul` (``linear_bwd`` computes the weight
#: gradient with an inline GEMM), so their self time counts as matmul.
KERNEL_GROUPS = {
    "matmul": "matmul",
    "linear_fwd": "matmul",
    "linear_bwd": "matmul",
    "gelu_fwd": "gelu_fwd",
    "gelu_bwd": "gelu_bwd",
    "layernorm_fwd": "layernorm",
    "layernorm_bwd": "layernorm",
    "softmax_fwd": "softmax",
    "softmax_bwd": "softmax",
    "attention_scores_fwd": "attention",
    "attention_scores_bwd": "attention",
    "split_heads": "attention",
    "merge_heads": "attention",
}
KERNEL_CATEGORIES = (
    "matmul", "gelu_fwd", "gelu_bwd", "layernorm", "softmax", "attention", "other",
)

#: The step span's name: the benchmark's own iteration (``train_step``
#: plus any checkpoint save due after it).
STEP = "core.engine.step"

Counts = Callable[..., dict]


def _gemm_flop(a: np.ndarray, b: np.ndarray) -> float:
    """2*m*n*k for ``a @ b``, times the broadcast batch size."""
    m, k = a.shape[-2], a.shape[-1]
    n = b.shape[-1]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return 2.0 * m * n * k * float(np.prod(batch, dtype=np.float64))


def _matmul_counts(args, result, token) -> dict:
    return {
        "nn.functional.matmul.calls": 1,
        "nn.functional.matmul.gflop": _gemm_flop(args[0], args[1]) / 1e9,
    }


def _linear_bwd_counts(args, result, token) -> dict:
    # the weight gradient GEMM: grad_y[rows, out]^T @ x[rows, in]
    grad_y, (x, _weight, _bias) = args[0], args[1]
    rows = grad_y.size // grad_y.shape[-1]
    flop = 2.0 * rows * grad_y.shape[-1] * x.shape[-1]
    return {"nn.functional.matmul.calls": 1, "nn.functional.matmul.gflop": flop / 1e9}


def _nbytes(metric: str, pick: Callable) -> Counts:
    def counts(args, result, token) -> dict:
        return {metric: int(pick(args, result).nbytes)}

    return counts


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _stats_delta(op: str) -> tuple[Callable, Counts]:
    """Bytes a ProcessGroup collective recorded in its own CommStats."""

    def before(args):
        return args[0].stats.bytes_by_op.get(op, 0)

    def counts(args, result, token) -> dict:
        return {f"comm.group.{op}.bytes": args[0].stats.bytes_by_op.get(op, 0) - token}

    return before, counts


class LayerTracer:
    """Records spans and counters from wrappers around layer entry points."""

    def __init__(self) -> None:
        # span: [name, group, start, end, parent index, step, thread id, outer]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.step = -1
        self._stacks: dict[int, list[int]] = {}
        self._restore: list[tuple[object, str, object, bool]] = []
        self._lock = threading.Lock()

    # --- recording ---------------------------------------------------------------
    def _open(self, name: str, group: str) -> int:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        parent = stack[-1] if stack else -1
        outer = all(self.spans[i][1] != group for i in stack)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                [name, group, time.perf_counter(), 0.0, parent, self.step,
                 threading.get_ident(), outer]
            )
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (its group is its name)."""
        idx = self._open(name, name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapped(self, orig, name, group, counts, before):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = tracer._open(name, group)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts is not None:
                for key, value in counts(args, result, token).items():
                    tracer.counters[key] += value
            return result

        return traced

    def wrap(self, owner, attr: str, group: str, *, counts: Optional[Counts] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class or module) with a span-recording
        wrapper.  For a module function, every ``repro`` module that bound
        the same function object by name is patched too."""
        own = attr in vars(owner)
        orig = vars(owner)[attr] if own else getattr(owner, attr)
        name = f"{group}:{attr}"
        traced = self._wrapped(orig, name, group, counts, before)
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig, own))
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, orig, True))

    def uninstall(self) -> None:
        """Put every wrapped attribute back (in reverse order)."""
        while self._restore:
            owner, attr, orig, own = self._restore.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def install(self) -> None:
        """Wrap the entry points of every layer the benchmark reports."""
        from repro.comm.group import ProcessGroup
        from repro.comm.mp_backend import MultiprocBackend
        from repro.core import checkpoint_io, zero_optimizer
        from repro.core.bucket import GradientBucketStore
        from repro.core.offload import InfinityOffloadEngine
        from repro.core.partition import ParameterPartitioner
        from repro.nn import functional
        from repro.nn.checkpoint import CheckpointedBlock
        from repro.nvme import store
        from repro.nvme.aio import IORequest
        from repro.optim import adam

        for fn in sorted(vars(functional)):
            value = getattr(functional, fn)
            if fn.startswith("_") or not callable(value) or getattr(
                value, "__module__", None
            ) != functional.__name__:
                continue
            counts = {"matmul": _matmul_counts, "linear_bwd": _linear_bwd_counts}.get(fn)
            group = "nn.functional." + KERNEL_GROUPS.get(fn, "other")
            self.wrap(functional, fn, group, counts=counts)

        self.wrap(CheckpointedBlock, "forward", "nn.checkpoint")
        self.wrap(CheckpointedBlock, "backward", "nn.checkpoint")

        self.wrap(ParameterPartitioner, "gather", "core.partition.gather")
        self.wrap(ParameterPartitioner, "gather_coalesced", "core.partition.gather")
        self.wrap(ParameterPartitioner, "release", "core.partition.release")

        for op, attrs in (("allgather", ("allgather", "allgather_into")),
                          ("reduce_scatter", ("reduce_scatter", "reduce_scatter_into"))):
            for attr in attrs:
                before, counts = _stats_delta(op)
                self.wrap(ProcessGroup, attr, f"comm.group.{op}",
                          counts=counts, before=before)

        self.wrap(InfinityOffloadEngine, "fetch", "core.offload.fetch")
        self.wrap(InfinityOffloadEngine, "fetch_into", "core.offload.fetch")
        self.wrap(InfinityOffloadEngine, "prefetch", "core.offload.prefetch")
        self.wrap(InfinityOffloadEngine, "stash", "core.offload.stash")

        self.wrap(GradientBucketStore, "add", "core.bucket.add")
        self.wrap(GradientBucketStore, "flush", "core.bucket.flush")

        self.wrap(zero_optimizer.ZeroPartitionedAdam, "step", "core.zero_optimizer.step")
        self.wrap(adam, "adam_step", "optim.adam", counts=lambda a, r, t: {
            "optim.adam.elements": int(a[0].size)})

        read = "nvme.store.read.bytes"
        write = "nvme.store.write.bytes"
        self.wrap(store.TensorStore, "read", "nvme.store.read",
                  counts=_nbytes(read, lambda a, r: r))
        self.wrap(store.TensorStore, "read_async", "nvme.store.read",
                  counts=_nbytes(read, lambda a, r: r[0]))
        self.wrap(store.TensorStore, "read_range", "nvme.store.read",
                  counts=_nbytes(read, lambda a, r: r[0]))
        # write() delegates to write_async(); bytes are counted there only
        self.wrap(store.TensorStore, "write", "nvme.store.write")
        self.wrap(store.TensorStore, "write_async", "nvme.store.write",
                  counts=_nbytes(write, lambda a, r: np.asarray(a[2])))
        self.wrap(store.TensorStore, "write_range", "nvme.store.write",
                  counts=_nbytes(write, lambda a, r: np.asarray(a[3])))
        self.wrap(store.TensorStore, "promote", "nvme.store.promote",
                  before=lambda a: a[0].nbytes(a[1]),
                  counts=lambda a, r, t: {"nvme.store.promote.bytes": t})
        # read handles: the raw aio request and the CRC-verifying wrapper
        # that read_async returns when checksums are on
        self.wrap(IORequest, "wait", "nvme.store.wait")
        self.wrap(store._VerifiedRead, "wait", "nvme.store.wait")

        self.wrap(MultiprocBackend, "exchange", "comm.mp_backend.exchange",
                  counts=lambda a, r, t: {
                      "comm.mp_backend.exchange.bytes": int(np.asarray(a[1]).nbytes)})
        self.wrap(MultiprocBackend, "step_sync", "comm.mp_backend.step_sync")

        self.wrap(checkpoint_io, "save_checkpoint", "core.checkpoint_io.save",
                  counts=lambda a, r, t: {
                      "core.checkpoint_io.save.bytes": _dir_bytes(a[1])})

    # --- reduction ---------------------------------------------------------------
    def summarize(self, steps: int) -> dict:
        """Per-step self time, busy time, calls and counters, by group.

        Only spans on the thread that ran the steps enter the step
        reconciliation; spans on other threads are counted in
        ``off_thread_spans`` (the program's I/O worker threads call no
        wrapped entry point, so it reads 0).
        """
        child = [0.0] * len(self.spans)
        for name, group, start, end, parent, step, tid, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        busy_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        step_ms = 0.0
        step_threads = {s[6] for s in self.spans if s[1] == STEP}
        off_thread = 0
        for i, (name, group, start, end, parent, step, tid, outer) in enumerate(self.spans):
            if tid not in step_threads:
                off_thread += 1
                continue
            dur = (end - start) * 1e3
            self_ms[group] += dur - child[i] * 1e3
            if outer:
                busy_ms[group] += dur
                calls[group] += 1
            if group == STEP:
                step_ms += dur
        per = 1.0 / max(steps, 1)
        return {
            "self_ms": {g: v * per for g, v in self_ms.items()},
            "busy_ms": {g: v * per for g, v in busy_ms.items()},
            "calls": {g: v * per for g, v in calls.items()},
            "counters": {k: v * per for k, v in self.counters.items()},
            "step_ms": step_ms * per,
            "off_thread_spans": off_thread,
        }

    def write_jsonl(self, path: str) -> None:
        """Dump every span (times in microseconds from the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, group, start, end, parent, step, tid, outer) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "group": group,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                    "parent": parent, "step": step, "thread": tid,
                }) + "\n")
