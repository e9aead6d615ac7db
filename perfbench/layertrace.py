"""Per-layer spans for the traced benchmark run, installed from outside src/.

Each probe replaces one public function of a spikeconvert layer at every
module binding where callers look it up (or one method on its class), with
a wrapper that records a span: calls, total seconds and self seconds (total
minus the time of traced spans nested inside it). A few probes also add
counts computed from the call's arguments and result. Nothing is patched
outside the `Tracer.installed()` block, and every binding is restored on
exit, so the untraced run measures the unmodified program.
"""
from __future__ import annotations

import contextlib
import functools
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import spikeconvert
from spikeconvert import calibration, cli, energy, model, spikeops, tensors

# every namespace a caller can look a probed function up in
_MODULES = (spikeconvert, calibration, cli, energy, model, spikeops, tensors)
SUBLAYERS = ("input", "ln1", "attn", "ln2", "ffn")


class Tracer:
    """Span statistics and counts, kept in memory for one traced run."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.block_json_bytes = 0
        self._stack: list[list] = []

    def calls(self, span: str) -> int:
        return self.spans[span][0] if span in self.spans else 0

    def total_s(self, span: str) -> float:
        return self.spans[span][1] if span in self.spans else 0.0

    def self_s(self, span: str) -> float:
        return self.spans[span][2] if span in self.spans else 0.0

    def _wrap(self, fn, name, count):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(stack) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                st = spans[label]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                t1 = perf_counter()
                count(self, args, result)
                # the counting is the tracer's own cost: keep it out of the
                # enclosing span's self time
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every probe in, and restore the original bindings on exit."""
        saved = []
        try:
            for owner, attr, name, count in PROBES:
                if isinstance(owner, type):
                    orig = owner.__dict__[attr]
                    targets = [owner]
                else:
                    orig = getattr(owner, attr)
                    targets = [m for m in _MODULES if getattr(m, attr, None) is orig]
                wrapper = self._wrap(orig, name, count)
                for target in targets:
                    saved.append((target, attr, orig))
                    setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, orig in reversed(saved):
                setattr(target, attr, orig)


def _float_forward_span(stack) -> str:
    # the same function is the calibration replay inside convert and the
    # oracle inside spike_forward
    if any(frame[0] == "model.convert" for frame in stack):
        return "model.convert.replay"
    return "model.float_forward"


def _count_hg(tr: Tracer, args, result) -> None:
    flat = args[0].data
    bs = np.asarray(args[1].boundaries)
    tr.counts["neurons.hg.elements"] += flat.size
    tr.counts["neurons.hg.clamped"] += int(np.count_nonzero((flat < bs[0]) | (flat >= bs[-1])))
    # interior boundaries give the bucket the bank routes each element to,
    # out-of-range elements landing on the edge buckets as the clamp does
    buckets = np.searchsorted(bs[1:-1], flat, side="right")
    tr.counts["neurons.hg.subranges_hit"] += int(np.unique(buckets).size)


def _count_oat(tr: Tracer, args, result) -> None:
    tr.counts["neurons.oat.elements"] += args[0].data.size
    tr.counts["neurons.oat.events"] += int(result.events.sum())


def _count_ledger(tr: Tracer, args, result) -> None:
    ledger = result[1].ledger
    tr.counts["energy.sops"] += ledger.sops
    tr.counts["energy.flops"] += ledger.flops
    for site, c in ledger.by_site.items():
        parts = site.split(".")
        sub = parts[2] if parts[0] == "layers" else parts[0]
        tr.counts["energy.sops." + sub] += c["sops"]


def _count_block_bytes(tr: Tracer, args, result) -> None:
    tr.block_json_bytes = os.path.getsize(args[1])


# (owner, attribute, span name or name function, counter)
PROBES = (
    (model, "convert", "model.convert", None),
    (model, "float_forward", _float_forward_span, None),
    (model, "stats", "model.convert.thresholds", None),
    (model, "select_oat_thresholds", "model.convert.thresholds", None),
    (model, "observed_range", "model.convert.thresholds", None),
    (model, "fit_target", "calibration.fit_target", None),
    (calibration, "fit_fs", "calibration.fit_fs", None),
    (model, "spike_forward", "model.spike_forward", _count_ledger),
    (model, "save_block", "model.save_block", _count_block_bytes),
    (model, "load_block", "model.load_block", None),
    (spikeops, "apply_hg", "neurons.hg", _count_hg),
    (spikeops, "encode_matrix", "neurons.oat", _count_oat),
    (spikeops, "saa_mul", "spikeops.saa_mul", None),
    (spikeops, "hadamard_mul", "spikeops.hadamard_mul", None),
    (spikeops, "softmax_offset", "spikeops.softmax_offset", None),
    (spikeops, "saw_mul_right", "spikeops.saw_mul_right", None),
    (spikeops, "decode_train", "spikeops.decode_train", None),
    (spikeops, "spike_softmax", "spikeops.spike_softmax", None),
    (spikeops, "spike_layernorm", "spikeops.spike_layernorm", None),
    (spikeops, "spike_ffn", "spikeops.spike_ffn", None),
    (spikeops, "spike_gated_ffn", "spikeops.spike_gated_ffn", None),
    (spikeops.SpikeMatrixTrain, "__init__", "spikeops.train_init", None),
    (energy.EnergyLedger, "record_sop", "energy.record_sop", None),
    (tensors.Matrix, "__init__", "tensors.Matrix", None),
    (cli, "main", "cli.main.run", None),
)


def _covered_pct(tr: Tracer, span: str) -> float:
    total = tr.total_s(span)
    return 100.0 * (total - tr.self_s(span)) / total if total > 0 else 0.0


def layer_metrics(tr: Tracer, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def calls(span):
        m[span + ".calls"] = (tr.calls(span), "count")

    def total(span, key=None):
        m[key or span + ".s"] = (tr.total_s(span), "s")

    def self_(span):
        m[span + ".self_s"] = (tr.self_s(span), "s")

    calls("calibration.fit_fs")
    total("calibration.fit_fs")
    self_("calibration.fit_target")
    total("model.convert.replay", "model.convert.replay_s")
    total("model.convert.thresholds", "model.convert.thresholds_s")
    self_("model.convert")
    m["model.convert.covered_pct"] = (_covered_pct(tr, "model.convert"), "%")

    calls("neurons.hg")
    total("neurons.hg")
    for key in ("elements", "clamped", "subranges_hit"):
        m["neurons.hg." + key] = (tr.counts["neurons.hg." + key], "count")
    calls("neurons.oat")
    total("neurons.oat")
    for key in ("elements", "events"):
        m["neurons.oat." + key] = (tr.counts["neurons.oat." + key], "count")

    for op in ("saa_mul", "hadamard_mul", "softmax_offset", "saw_mul_right",
               "decode_train", "train_init"):
        calls("spikeops." + op)
        total("spikeops." + op)
    for layer in ("spike_softmax", "spike_layernorm", "spike_ffn", "spike_gated_ffn"):
        self_("spikeops." + layer)

    oracle = tr.total_s("model.float_forward")
    spike = tr.total_s("model.spike_forward") - oracle
    m["model.float_forward.s"] = (oracle, "s")
    m["model.spike_forward.s"] = (tr.total_s("model.spike_forward"), "s")
    self_("model.spike_forward")
    m["model.spike_forward.covered_pct"] = (_covered_pct(tr, "model.spike_forward"), "%")
    m["model.oracle_ratio"] = (spike / oracle if oracle > 0 else 0.0, "x")
    total("model.save_block")
    total("model.load_block")
    m["model.block_json_bytes"] = (tr.block_json_bytes, "bytes")

    calls("energy.record_sop")
    total("energy.record_sop")
    m["energy.sops"] = (tr.counts["energy.sops"], "count")
    m["energy.flops"] = (tr.counts["energy.flops"], "count")
    for sub in SUBLAYERS:
        m["energy.sops." + sub] = (tr.counts["energy.sops." + sub], "count")

    calls("tensors.Matrix")
    total("tensors.Matrix")
    total("cli.main.run")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
