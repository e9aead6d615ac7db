"""Spike-train linear algebra and the spike-equivalent transformer sublayers.

Spike trains (neurons.SpikeMatrixTrain) carry one weighted-value matrix per
timestep; an event is a nonzero value. Three product kernels operate on
them:

  saw_mul       weight times train. Exactly linear: the decoded output is
                the float product of the weight and the decoded input.
                One BLAS product over all steps; only the summation order
                within each dot product differs from a per-step loop.
  saa_mul       train times train via running accumulators; per step only
                event-gated additions happen, yet every prefix of the
                output sums to the float product of the decoded prefixes.
  hadamard_mul  elementwise analog of saa_mul, same prefix identity. A
                train times itself (LayerNorm's square) takes one prefix
                sum and one cross product, added twice: va * P equals
                P * va exactly, so the sum is the general path's, bit for
                bit.

softmax_offset converts a logit train into a max-shifted train whose decode
equals logits minus the row max, exactly, without ever holding the final
row max ahead of time.

Every kernel works on whole (T, rows, cols) tensors, saa_mul also on
(T, heads, rows, cols) head stacks: running accumulators are prefix sums
over T, added in step order as a per-step loop adds them, and SOPs are
counted once per call. encode_matrix reads the dual-range encoder's chunk
tables (neurons._mt_run) rather than stepping it. Outputs are built
unchecked through SpikeMatrixTrain._wrap; encode_matrix and apply_hg refuse
non-finite input, which catches a bad value where a decoded train re-enters.
For the same reason three intermediates skip Matrix's checked copy and are
wrapped as they are: project's bias add, spike_layernorm's centered values
and attention's scaled q (model.spike_forward). Each feeds an encoder or a
gate in the same sublayer, so a non-finite entry still ends that sublayer
with the same error.

The composite layers (softmax, LayerNorm, FFN, gated FFN) weave these
products together with the fitted neuron gates, through reencode and
project. Each is called as (xs, p, site, ledger, counters): p maps block
keys to the block's weights (Matrix), encoders (OATConfig) and gate banks
(HGConfig), and site is the sublayer key ("layers.0.ln1"). A composite
reads every weight, encoder and gate at site + leaf ("layers.0.ln1.gamma")
and charges each encoder and gate at that same key. The optional energy
ledger records event-gated additions per site; the optional counters dict
tallies gate range clamps as "<gate site>.clamped" and encoder inputs
above the top grid level as "<encoder site>.saturated".
"""
from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeError, StepMismatchError
from .neurons import (
    HGConfig,
    OATConfig,
    SpikeMatrixTrain,
    _check_exact_range,
    _hg_run,
    _mt_run,
    decode,
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
        ledger.record_sop(site, int(np.count_nonzero(ts.events)))
    return decode(ts)


def encode_matrix(
    x: Matrix,
    cfg: OATConfig,
    T: int | None = None,
    ledger=None,
    site: str = "encode",
    counters: dict | None = None,
) -> SpikeMatrixTrain:
    """Encode a float matrix through the dual-range encoder (T overridable).

    Elements with |x| < theta_nor take the fine encoder (tau = theta_nor);
    elements at or above theta_nor take the coarse one (tau = theta_out).
    Each emission subtracts from the encoder membrane: one accumulation per
    event on the ledger. Elements above their range's top grid level
    saturate, and the saturation counter records how many there were. A
    non-finite input raises NonFiniteError.
    """
    if not np.isfinite(x.data).all():
        raise NonFiniteError(f"encoder input at {site!r} contains non-finite values")
    if T is None:
        T = cfg.T
    else:
        _check_exact_range(cfg.H, T)
    # magnitude routing as a per-element tau: the same IEEE operations as
    # encoding each range on its own
    tau = np.where(np.abs(x.data) >= cfg.theta_nor, cfg.theta_out, cfg.theta_nor)
    values, saturated = _mt_run(x.data, tau, cfg.H, T)
    _count(counters, site + ".saturated", saturated)
    return _train(values, x, ledger, site)


def _count(counters: dict | None, key: str, n: int) -> None:
    # a counter appears only once it has something to count
    if counters is not None and n:
        counters[key] = counters.get(key, 0) + n


def _train(values, x: Matrix, ledger, site: str) -> SpikeMatrixTrain:
    # an encoder or gate output over a flat batch, shaped like its input; a
    # count over the bool mask is several times faster than over the floats
    if ledger is not None:
        ledger.record_sop(site, int(np.count_nonzero(values != 0.0)))
    return SpikeMatrixTrain._wrap(values.reshape(values.shape[0], x.rows, x.cols))


def constant_train(x: Matrix, T: int) -> SpikeMatrixTrain:
    """A train that delivers x in full at step one and stays silent after.

    How biases and other fixed currents enter the spike path.
    """
    values = np.zeros((T, x.rows, x.cols))
    values[0] = x.array
    return SpikeMatrixTrain._wrap(values)


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
    NonFiniteError instead. Another T runs the first T steps of the
    fitted schedule (coarser output), or pads it with silent steps.
    """
    if not np.isfinite(x.data).all():
        raise NonFiniteError(f"gate input at {site!r} contains non-finite values")
    values, clamped = _hg_run(x.data, cfg, T)
    _count(counters, site + ".clamped", clamped)
    return _train(values, x, ledger, site)


def reencode(
    ts: SpikeMatrixTrain,
    cfg: OATConfig,
    ledger=None,
    site: str = "encode",
    counters: dict | None = None,
) -> SpikeMatrixTrain:
    """Decode a train (charged at site + "_decode") and encode the result
    again through the dual-range encoder at site, at the train's T."""
    return encode_matrix(decode_train(ts, ledger, site + "_decode"), cfg, ts.steps,
                         ledger, site, counters)


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
    out = W.array @ xs.values
    if ledger is not None:
        ledger.record_sop(site, int(np.count_nonzero(xs.events)) * W.rows)
    return SpikeMatrixTrain._wrap(out)


def saw_mul_right(
    xs: SpikeMatrixTrain, W: Matrix, ledger=None, site: str = "saw"
) -> SpikeMatrixTrain:
    """Spike train times fixed weight (right): out(t) = xs(t) @ W."""
    if xs.cols != W.rows:
        raise ShapeError(
            f"train {xs.shape} cannot multiply weight {W.shape} from the right"
        )
    out = xs.values @ W.array
    if ledger is not None:
        ledger.record_sop(site, int(np.count_nonzero(xs.events)) * W.cols)
    return SpikeMatrixTrain._wrap(out)


def project(
    xs: SpikeMatrixTrain, W: Matrix, b: Matrix | None = None, ledger=None,
    site: str = "saw",
) -> Matrix:
    """Decoded xs @ W plus an optional (1, cols) bias row: the product is
    charged at site and its decode at site + "_decode". The result is not
    checked for finiteness; the encoder or gate it feeds refuses a
    non-finite entry."""
    out = decode_train(saw_mul_right(xs, W, ledger, site), ledger, site + "_decode")
    return out if b is None else Matrix._wrap(out.array + b.array)


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    """Running sums over the T axis from a zero start: p[t] = v[0] + ... +
    v[t-1], added in step order, for t = 0..T (T + 1 steps)."""
    p = np.zeros((v.shape[0] + 1,) + v.shape[1:])
    p[1:] = v
    return np.cumsum(p, axis=0, out=p)


def saa_mul(
    qs: SpikeMatrixTrain, ks: SpikeMatrixTrain, ledger=None, site: str = "saa"
) -> SpikeMatrixTrain:
    """Train times train without per-step dense products.

    ks comes pre-transposed (inner dim on its rows). Per step the output is

        A(t) = q(t) @ k(t) + q(t) @ S_k(t) + S_q(t) @ k(t)

    with S_q, S_k the exclusive prefix sums (all *earlier* steps), computed
    for every step at once. Every prefix of A telescopes to the product of
    the decoded prefixes, so the full decode equals decode(qs) @ decode(ks)
    up to float rounding; equal batch axes after T multiply entry by entry.
    An event pair costs one accumulation, and each event meets the other
    operand's running sum once per output column (or row); the ledger gets
    the whole call's count at once.
    """
    if qs.steps != ks.steps:
        raise StepMismatchError(f"step counts differ: {qs.steps} != {ks.steps}")
    if qs.cols != ks.rows or qs.values.shape[:-2] != ks.values.shape[:-2]:
        raise ShapeError(f"trains do not multiply: {qs.shape} x {ks.shape}")
    # sliced and transposed views are copied, so BLAS sees one layout
    vq, vk = np.ascontiguousarray(qs.values), np.ascontiguousarray(ks.values)
    out = vq @ vk + vq @ _prefix_sums(vk)[:-1] + _prefix_sums(vq)[:-1] @ vk
    if ledger is not None:
        eq, ek = qs.events, ks.events
        pairs = int((eq.sum(axis=-2) * ek.sum(axis=-1)).sum())
        ledger.record_sop(site, pairs + int(np.count_nonzero(eq)) * ks.cols
                          + int(np.count_nonzero(ek)) * qs.rows)
    return SpikeMatrixTrain._wrap(out)


def hadamard_mul(
    a: SpikeMatrixTrain, b: SpikeMatrixTrain, ledger=None, site: str = "hadamard"
) -> SpikeMatrixTrain:
    """Elementwise train product, same prefix-sum scheme as saa_mul.

    A single-column train broadcasts across the other operand's columns
    (how a per-row scale like an inverse-norm meets a full-width train).
    Each event pair, and each event of either operand against the other's
    running sum, is one accumulation at every output element it reaches.
    """
    if a.steps != b.steps:
        raise StepMismatchError(f"step counts differ: {a.steps} != {b.steps}")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"train shapes do not broadcast: {a.shape} x {b.shape}")
    va, vb = a.values, b.values
    if a is b:
        # a square: one prefix sum and one cross product, as va * P == P * va
        X = va * _prefix_sums(va)[:-1]
        out = va * va + X + X
    else:
        out = va * vb + va * _prefix_sums(vb)[:-1] + _prefix_sums(va)[:-1] * vb
    if ledger is not None:
        # a mask broadcast to the output shape repeats each entry equally often
        ea = a.events
        eb = ea if a is b else b.events
        ledger.record_sop(site, sum(
            int(np.count_nonzero(e)) * (out.size // max(e.size, 1))
            for e in (ea & eb, ea, eb)))
    return SpikeMatrixTrain._wrap(out)


def softmax_offset(
    zs: SpikeMatrixTrain, ledger=None, site: str = "offset"
) -> SpikeMatrixTrain:
    """Shift a logit train so its decode is logits minus the row max.

    Step t emits z(t) plus the per-row drop in the running prefix max; the
    drops telescope, so the decoded total is z - rowmax(z) without the row
    max ever being known in advance. The empty prefix has max zero. The
    prefix maxima of every step come from one prefix sum over T.
    """
    if zs.cols < 1:
        raise ShapeError("softmax offset needs at least one column per row")
    prefix_max = _prefix_sums(zs.values).max(axis=-1, keepdims=True)
    out = zs.values + (prefix_max[:-1] - prefix_max[1:])
    if ledger is not None:
        # every nonzero corrected value is one accumulation downstream
        ledger.record_sop(site, int(np.count_nonzero(out != 0.0)))
    return SpikeMatrixTrain._wrap(out)


# ---------------------------------------------------------------------------
# composite sublayers


def _with_bias(values: np.ndarray, b: Matrix) -> SpikeMatrixTrain:
    # the bias row delivered in full at step one, as a constant train would
    # add it (the + 0.0 is that train's silent steps)
    out = values + 0.0
    out[0] = values[0] + b.array
    return SpikeMatrixTrain._wrap(out)


def spike_softmax(
    zs: SpikeMatrixTrain, p, site: str, ledger=None, counters: dict | None = None
) -> SpikeMatrixTrain:
    """Row softmax from spike parts: exp gate, reciprocal gate, Hadamard.

    The logit train is max-shifted first (exact), the shifted total drives
    the exp gate (site ".exp"), row sums of the exp train drive the
    reciprocal gate (".recip"), and the two trains multiply elementwise
    with the single-column reciprocal broadcasting across the row. Row-sum
    inputs outside the reciprocal's fitted range clamp and are counted.
    """
    T = zs.steps
    shifted = softmax_offset(zs, ledger, site + ".offset")
    zhat = decode_train(shifted, ledger, site + ".offset_decode")
    e_train = apply_hg(zhat, p[site + ".exp"], T, ledger, site + ".exp", counters)
    denom = decode_train(e_train, ledger, site + ".denom")
    row_sums = Matrix._wrap(denom.array.sum(axis=1, keepdims=True))
    inv_train = apply_hg(row_sums, p[site + ".recip"], T, ledger, site + ".recip",
                         counters)
    return hadamard_mul(e_train, inv_train, ledger, site + ".norm")


def spike_layernorm(
    xs: SpikeMatrixTrain, p, site: str, ledger=None, counters: dict | None = None
) -> SpikeMatrixTrain:
    """Spike LayerNorm: center, exact Hadamard variance, inverse-root Hadamard.

    The input train is decoded into the gate membrane and centered; the
    centered values re-enter as a dual-range train (".center"), which the
    Hadamard kernel multiplies by itself (".square"), so the variance is
    the row mean of the squared decoded centered values, exactly, with no
    fitted gate. The per-row inverse root (".invsqrt"; epsilon floored
    inside the fitted target, so zero variance is safe) multiplies in via
    the Hadamard kernel before the affine scale ".gamma" and shift ".beta".
    """
    T = xs.steps
    x = decode_train(xs, ledger, site + ".in_decode")
    mu = x.array.mean(axis=1, keepdims=True)
    centered = Matrix._wrap(x.array - mu)  # unchecked: its encoder checks
    if ledger is not None:
        # row-mean accumulation plus per-element subtraction
        ledger.record_sop(site + ".mean", 2 * x.rows * x.cols)
    c_train = encode_matrix(centered, p[site + ".center"], T, ledger, site + ".center",
                            counters)
    sq_train = hadamard_mul(c_train, c_train, ledger, site + ".square")
    sq = decode_train(sq_train, ledger, site + ".square_decode")
    var = Matrix._wrap(sq.array.mean(axis=1, keepdims=True))
    if ledger is not None:
        ledger.record_sop(site + ".variance", x.rows * x.cols)
    inv_train = apply_hg(var, p[site + ".invsqrt"], T, ledger, site + ".invsqrt",
                         counters)
    normed = hadamard_mul(c_train, inv_train, ledger, site + ".norm")
    return _with_bias(normed.values * p[site + ".gamma"].array[0], p[site + ".beta"])


def spike_ffn(
    xs: SpikeMatrixTrain, p, site: str, ledger=None, counters: dict | None = None
) -> SpikeMatrixTrain:
    """Two-layer FFN: re-encode the input (".in"), project through ".w1"
    plus ".b1", gate the activation (".act"), project through ".w2" plus
    ".b2"."""
    T = xs.steps
    xt = reencode(xs, p[site + ".in"], ledger, site + ".in", counters)
    pre = project(xt, p[site + ".w1"], p[site + ".b1"], ledger, site + ".w1")
    act_train = apply_hg(pre, p[site + ".act"], T, ledger, site + ".act", counters)
    out = saw_mul_right(act_train, p[site + ".w2"], ledger, site + ".w2")
    return _with_bias(out.values, p[site + ".b2"])


def spike_gated_ffn(
    xs: SpikeMatrixTrain, p, site: str, ledger=None, counters: dict | None = None
) -> SpikeMatrixTrain:
    """Gated FFN: activation-gated up-projection with a Hadamard interaction.

    g = act(x @ wg + bg), u = x @ wu + bu, z = enc(u) * g, out = z @ wd + bd.
    x, u and z live on different scales, so each has its own encoder:
    ".in", ".mid" and ".z"; the gate is ".act".
    """
    T = xs.steps
    xt = reencode(xs, p[site + ".in"], ledger, site + ".in", counters)
    g_pre = project(xt, p[site + ".wg"], p[site + ".bg"], ledger, site + ".wg")
    g_train = apply_hg(g_pre, p[site + ".act"], T, ledger, site + ".act", counters)
    u = project(xt, p[site + ".wu"], p[site + ".bu"], ledger, site + ".wu")
    u_train = encode_matrix(u, p[site + ".mid"], T, ledger, site + ".mid", counters)
    z_train = hadamard_mul(u_train, g_train, ledger, site + ".interact")
    zt = reencode(z_train, p[site + ".z"], ledger, site + ".z", counters)
    out = saw_mul_right(zt, p[site + ".wd"], ledger, site + ".wd")
    return _with_bias(out.values, p[site + ".bd"])
