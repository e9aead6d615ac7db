"""Spike-train linear algebra and the spike-equivalent transformer sublayers.

Spike trains (neurons.SpikeMatrixTrain) carry one weighted-value matrix per
timestep. Three product kernels operate on them:

  saw_mul       weight times train. Exactly linear: the decoded output is
                the float product of the weight and the decoded input.
  saa_mul       train times train via running accumulators; per step only
                event-gated additions happen, yet every prefix of the
                output sums to the float product of the decoded prefixes.
  hadamard_mul  elementwise analog of saa_mul, same prefix identity.

softmax_offset converts a logit train into a max-shifted train whose decode
equals logits minus the row max, exactly, without ever holding the final
row max ahead of time.

The composite layers (softmax, LayerNorm, FFN, gated FFN) weave these
products together with the fitted neuron gates. Each takes an optional
energy ledger (event-gated additions are recorded per site) and an optional
counters dict where range-clamp totals are tallied.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeError, StepMismatchError
from .neurons import (
    HGConfig,
    OATConfig,
    SpikeMatrixTrain,
    _hg_run,
    _oat_run,
    decode,
    hg_at_steps,
)
from .tensors import Matrix


def decode_train(
    ts: SpikeMatrixTrain, ledger=None, site: str = "decode"
) -> Matrix:
    """Sum the train over steps: the membrane view a downstream gate sees.

    Each event is one accumulation into the receiving membrane, so the
    event count is charged when a ledger is given.
    """
    if ledger is not None:
        ledger.record_sop(site, int(ts.events.sum()))
    return decode(ts)


def encode_matrix(
    x: Matrix, cfg: OATConfig, T: int | None = None, ledger=None, site: str = "encode"
) -> SpikeMatrixTrain:
    """Encode a float matrix through the dual-range encoder (T overridable).

    Elements with |x| < theta_nor take the fine encoder (tau = theta_nor);
    elements at or above theta_nor take the coarse one (tau = theta_out).
    Each emission subtracts from the encoder membrane: one accumulation per
    event on the ledger.
    """
    values, events = _oat_run(x.data, cfg, T)
    steps = values.shape[0]
    train = SpikeMatrixTrain(
        values.reshape(steps, x.rows, x.cols),
        events.reshape(steps, x.rows, x.cols),
    )
    if ledger is not None:
        ledger.record_sop(site, int(train.events.sum()))
    return train


def constant_train(x: Matrix, T: int) -> SpikeMatrixTrain:
    """A train that delivers x in full at step one and stays silent after.

    How biases and other fixed currents enter the spike path.
    """
    values = np.zeros((T, x.rows, x.cols))
    values[0] = x.array
    return SpikeMatrixTrain(values)


def apply_hg(
    x: Matrix,
    cfg: HGConfig,
    T: int | None = None,
    ledger=None,
    site: str = "gate",
    counters: dict | None = None,
) -> SpikeMatrixTrain:
    """Drive a fitted gated bank over a decoded matrix, producing a train.

    Each element falls in exactly one sub-range [b_i, b_{i+1}) and is
    processed by that sub-range's fitted kernel with the membrane seeded
    relative to the sub-range floor. Out-of-range inputs clamp to the
    nearest sub-range edge, so decoding saturates instead of failing; the
    clamp counter records how many there were. A non-finite input raises
    NonFiniteError instead. T below the fitted depth truncates the
    schedules (coarser output).
    """
    if not np.all(np.isfinite(x.data)):
        raise NonFiniteError(f"gate input at {site!r} contains non-finite values")
    if T is not None:
        cfg = hg_at_steps(cfg, T)
    values, events, clamped = _hg_run(x.data, cfg)
    steps = values.shape[0]
    train = SpikeMatrixTrain(
        values.reshape(steps, x.rows, x.cols),
        events.reshape(steps, x.rows, x.cols),
    )
    if counters is not None and clamped:
        counters[site + ".clamped"] = counters.get(site + ".clamped", 0) + clamped
    if ledger is not None:
        ledger.record_sop(site, int(train.events.sum()))
    return train


def transpose_train(ts: SpikeMatrixTrain) -> SpikeMatrixTrain:
    return SpikeMatrixTrain(ts.values.transpose(0, 2, 1), ts.events.transpose(0, 2, 1))


def slice_cols(ts: SpikeMatrixTrain, lo: int, hi: int) -> SpikeMatrixTrain:
    return SpikeMatrixTrain(ts.values[:, :, lo:hi], ts.events[:, :, lo:hi])


def concat_cols(parts: list[SpikeMatrixTrain]) -> SpikeMatrixTrain:
    if any(p.steps != parts[0].steps for p in parts):
        raise StepMismatchError("cannot concatenate trains with different step counts")
    return SpikeMatrixTrain(
        np.concatenate([p.values for p in parts], axis=2),
        np.concatenate([p.events for p in parts], axis=2),
    )


def scale_columns(ts: SpikeMatrixTrain, g: Matrix) -> SpikeMatrixTrain:
    """Per-column scaling of every step; linear, so decode scales the same."""
    if g.shape != (1, ts.cols):
        raise ShapeError(f"need a (1, {ts.cols}) scale row, got {g.shape}")
    return SpikeMatrixTrain(ts.values * g.array[0])


def add_trains(a: SpikeMatrixTrain, b: SpikeMatrixTrain) -> SpikeMatrixTrain:
    if a.steps != b.steps:
        raise StepMismatchError(f"step counts differ: {a.steps} != {b.steps}")
    if a.shape != b.shape:
        raise ShapeError(f"train shapes differ: {a.shape} != {b.shape}")
    return SpikeMatrixTrain(a.values + b.values)


# ---------------------------------------------------------------------------
# product kernels


def saw_mul(
    W: Matrix, xs: SpikeMatrixTrain, ledger=None, site: str = "saw"
) -> SpikeMatrixTrain:
    """Fixed weight (left) times spike train: out(t) = W @ xs(t).

    Exactly linear. Each input event gates one accumulation per output row,
    which is what the ledger records.
    """
    if W.cols != xs.rows:
        raise ShapeError(
            f"weight {W.shape} cannot multiply {xs.shape} train from the left"
        )
    out = np.einsum("pr,trc->tpc", W.array, xs.values)
    if ledger is not None:
        ledger.record_sop(site, int(xs.events.sum()) * W.rows)
    return SpikeMatrixTrain(out)


def saw_mul_right(
    xs: SpikeMatrixTrain, W: Matrix, ledger=None, site: str = "saw"
) -> SpikeMatrixTrain:
    """Spike train times fixed weight (right): out(t) = xs(t) @ W."""
    if xs.cols != W.rows:
        raise ShapeError(
            f"train {xs.shape} cannot multiply weight {W.shape} from the right"
        )
    out = np.einsum("trc,cq->trq", xs.values, W.array)
    if ledger is not None:
        ledger.record_sop(site, int(xs.events.sum()) * W.cols)
    return SpikeMatrixTrain(out)


def saa_mul(
    qs: SpikeMatrixTrain, ks: SpikeMatrixTrain, ledger=None, site: str = "saa"
) -> SpikeMatrixTrain:
    """Train times train without per-step dense products.

    ks comes pre-transposed (inner dim on its rows). Per step the output is

        A(t) = q(t) @ k(t) + q(t) @ S_k(t) + S_q(t) @ k(t)

    with S_q, S_k the sums of all *earlier* steps, updated afterward. Every
    prefix of A telescopes to the product of the decoded prefixes, so the
    full decode equals decode(qs) @ decode(ks) up to float rounding.
    """
    if qs.steps != ks.steps:
        raise StepMismatchError(f"step counts differ: {qs.steps} != {ks.steps}")
    if qs.cols != ks.rows:
        raise ShapeError(f"inner dimensions differ: {qs.shape} x {ks.shape}")
    T = qs.steps
    out = np.zeros((T, qs.rows, ks.cols))
    S_q = np.zeros((qs.rows, qs.cols))
    S_k = np.zeros((ks.rows, ks.cols))
    sops = 0
    for t in range(T):
        vq = qs.values[t]
        vk = ks.values[t]
        out[t] = vq @ vk + vq @ S_k + S_q @ vk
        if ledger is not None:
            eq = qs.events[t]
            ek = ks.events[t]
            pairs = int(eq.sum(axis=0) @ ek.sum(axis=1))
            sops += pairs + int(eq.sum()) * ks.cols + int(ek.sum()) * qs.rows
        S_q = S_q + vq
        S_k = S_k + vk
    if ledger is not None:
        ledger.record_sop(site, sops)
    return SpikeMatrixTrain(out)


def hadamard_mul(
    a: SpikeMatrixTrain, b: SpikeMatrixTrain, ledger=None, site: str = "hadamard"
) -> SpikeMatrixTrain:
    """Elementwise train product, same accumulator scheme as saa_mul.

    A single-column train broadcasts across the other operand's columns
    (how a per-row scale like an inverse-norm meets a full-width train).
    """
    if a.steps != b.steps:
        raise StepMismatchError(f"step counts differ: {a.steps} != {b.steps}")
    try:
        rshape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"train shapes do not broadcast: {a.shape} x {b.shape}")
    T = a.steps
    out = np.zeros((T,) + rshape)
    S_a = np.zeros(a.shape)
    S_b = np.zeros(b.shape)
    sops = 0
    for t in range(T):
        va = a.values[t]
        vb = b.values[t]
        out[t] = va * vb + va * S_b + S_a * vb
        if ledger is not None:
            ea = a.events[t]
            eb = b.events[t]
            sops += int(np.broadcast_to(ea & eb, rshape).sum())
            sops += int(np.broadcast_to(ea, rshape).sum())
            sops += int(np.broadcast_to(eb, rshape).sum())
        S_a = S_a + va
        S_b = S_b + vb
    if ledger is not None:
        ledger.record_sop(site, sops)
    return SpikeMatrixTrain(out)


def softmax_offset(
    zs: SpikeMatrixTrain, ledger=None, site: str = "offset"
) -> SpikeMatrixTrain:
    """Shift a logit train so its decode is logits minus the row max.

    Step t emits z(t) plus the per-row drop in the running prefix max; the
    drops telescope, so the decoded total is z - rowmax(z) without the row
    max ever being known in advance. The empty prefix has max zero.
    """
    if zs.cols < 1:
        raise ShapeError("softmax offset needs at least one column per row")
    T = zs.steps
    out = np.empty_like(zs.values)
    prefix = np.zeros(zs.shape)
    prev_max = np.zeros((zs.rows, 1))
    for t in range(T):
        prefix = prefix + zs.values[t]
        cur_max = prefix.max(axis=1, keepdims=True)
        out[t] = zs.values[t] + (prev_max - cur_max)
        prev_max = cur_max
    train = SpikeMatrixTrain(out)
    if ledger is not None:
        # every nonzero corrected value is one accumulation downstream
        ledger.record_sop(site, int(train.events.sum()))
    return train


# ---------------------------------------------------------------------------
# composite sublayers


def spike_softmax(
    zs: SpikeMatrixTrain,
    exp_cfg: HGConfig,
    inv_cfg: HGConfig,
    ledger=None,
    site: str = "softmax",
    counters: dict | None = None,
) -> SpikeMatrixTrain:
    """Row softmax from spike parts: exp gate, reciprocal gate, Hadamard.

    The logit train is max-shifted first (exact), the shifted total drives
    the exp gate, row sums of the exp train drive the reciprocal gate, and
    the two trains multiply elementwise with the single-column reciprocal
    broadcasting across the row. Row-sum inputs outside the reciprocal's
    fitted range clamp and are counted.
    """
    T = zs.steps
    shifted = softmax_offset(zs, ledger, site + ".offset")
    zhat = decode_train(shifted, ledger, site + ".offset_decode")
    e_train = apply_hg(zhat, exp_cfg, T, ledger, site + ".exp_gate", counters)
    denom = decode_train(e_train, ledger, site + ".denom")
    row_sums = Matrix._wrap(denom.array.sum(axis=1, keepdims=True))
    inv_train = apply_hg(row_sums, inv_cfg, T, ledger, site + ".inv_gate", counters)
    return hadamard_mul(e_train, inv_train, ledger, site + ".norm")


def spike_layernorm(
    xs: SpikeMatrixTrain,
    gamma: Matrix,
    beta: Matrix,
    invsqrt_cfg: HGConfig,
    square_cfg: HGConfig,
    oat: OATConfig,
    ledger=None,
    site: str = "layernorm",
    counters: dict | None = None,
) -> SpikeMatrixTrain:
    """Spike LayerNorm: center, squared-gate variance, inverse-root Hadamard.

    The input train is decoded into the gate membrane and centered; the
    centered values re-enter as a dual-range train, their squares come from
    the square gate, and the per-row inverse root (epsilon floored inside
    the fitted target, so zero variance is safe) multiplies in via the
    Hadamard kernel before the affine scale and shift.
    """
    T = xs.steps
    x = decode_train(xs, ledger, site + ".in_decode")
    mu = x.array.mean(axis=1, keepdims=True)
    centered = Matrix(x.array - mu)
    if ledger is not None:
        # row-mean accumulation plus per-element subtraction
        ledger.record_sop(site + ".center", 2 * x.rows * x.cols)
    c_train = encode_matrix(centered, oat, T, ledger, site + ".center_encode")
    sq_train = apply_hg(centered, square_cfg, T, ledger, site + ".square_gate", counters)
    sq = decode_train(sq_train, ledger, site + ".square_decode")
    var = Matrix._wrap(sq.array.mean(axis=1, keepdims=True))
    if ledger is not None:
        ledger.record_sop(site + ".variance", x.rows * x.cols)
    inv_train = apply_hg(var, invsqrt_cfg, T, ledger, site + ".invsqrt_gate", counters)
    normed = hadamard_mul(c_train, inv_train, ledger, site + ".norm")
    scaled = scale_columns(normed, gamma)
    shift = constant_train(Matrix(np.broadcast_to(beta.array, scaled.shape)), T)
    return add_trains(scaled, shift)


def spike_ffn(
    xs: SpikeMatrixTrain,
    W1: Matrix,
    b1: Matrix,
    W2: Matrix,
    b2: Matrix,
    act_cfg: HGConfig,
    oat: OATConfig,
    ledger=None,
    site: str = "ffn",
    counters: dict | None = None,
) -> SpikeMatrixTrain:
    """Two-layer FFN: re-encode input, project, gate the activation, project."""
    T = xs.steps
    x = decode_train(xs, ledger, site + ".in_decode")
    xt = encode_matrix(x, oat, T, ledger, site + ".in_encode")
    h_train = saw_mul_right(xt, W1, ledger, site + ".w1")
    pre = decode_train(h_train, ledger, site + ".w1_decode")
    pre = Matrix(pre.array + b1.array)
    act_train = apply_hg(pre, act_cfg, T, ledger, site + ".act_gate", counters)
    out = saw_mul_right(act_train, W2, ledger, site + ".w2")
    shift = constant_train(Matrix(np.broadcast_to(b2.array, out.shape)), T)
    return add_trains(out, shift)


def spike_gated_ffn(
    xs: SpikeMatrixTrain,
    Wg: Matrix,
    bg: Matrix,
    Wu: Matrix,
    bu: Matrix,
    Wd: Matrix,
    bd: Matrix,
    act_cfg: HGConfig,
    oat: OATConfig,
    ledger=None,
    site: str = "ffn",
    counters: dict | None = None,
    oat_mid: OATConfig | None = None,
    oat_out: OATConfig | None = None,
) -> SpikeMatrixTrain:
    """Gated FFN: activation-gated up-projection with a Hadamard interaction.

    g = gate(x @ Wg + bg), u = x @ Wu + bu, z = enc(u) * g, out = z @ Wd + bd.
    The mid and output re-encoders default to the input one but should be
    calibrated separately; u and z live on different scales than x.
    """
    T = xs.steps
    x = decode_train(xs, ledger, site + ".in_decode")
    xt = encode_matrix(x, oat, T, ledger, site + ".in_encode")
    g_pre = decode_train(saw_mul_right(xt, Wg, ledger, site + ".wg"),
                         ledger, site + ".wg_decode")
    g_pre = Matrix(g_pre.array + bg.array)
    g_train = apply_hg(g_pre, act_cfg, T, ledger, site + ".act_gate", counters)
    u = decode_train(saw_mul_right(xt, Wu, ledger, site + ".wu"),
                     ledger, site + ".wu_decode")
    u = Matrix(u.array + bu.array)
    u_train = encode_matrix(u, oat_mid or oat, T, ledger, site + ".mid_encode")
    z_train = hadamard_mul(u_train, g_train, ledger, site + ".interact")
    z = decode_train(z_train, ledger, site + ".z_decode")
    zt = encode_matrix(z, oat_out or oat, T, ledger, site + ".z_encode")
    out = saw_mul_right(zt, Wd, ledger, site + ".wd")
    shift = constant_train(Matrix(np.broadcast_to(bd.array, out.shape)), T)
    return add_trains(out, shift)
