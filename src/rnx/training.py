"""Loss, backpropagation through time, Adam, and the training loop.

The network trains on sequences of frames. Each step draws a batch of
random contiguous frame sequences, runs the full forward pass with cached
activations, backpropagates the masked band loss plus a weighted VAD
cross-entropy, clips the global gradient norm, and applies one Adam step.

The band loss treats -1 targets as sentinels for bands with no usable
evidence: they are excluded from every term and provably contribute zero
gradient. All heavy math vectorizes over (batch, time); only the GRU
recurrences run a per-step python loop.

Callers pass batch-major (B, T, ...) arrays. The forward pass transposes
the features once, and every cache, activation and gate delta inside the
engine is time-major (T, B, ...), so each recurrence step reads and writes
one contiguous (B, ...) slice. Parameter gradients sum over all T*B rows
and need no transpose back.

The recurrences flush subnormals: after each step, the hidden state, the
backward carry and the z/r gate deltas have every entry with
|v| < finfo(dtype).tiny set to 0. ReLU candidates are often exactly 0, and
then h decays by the update gate z each frame, through the subnormal
range. x86 CPUs take a slow microcode path on subnormal operands, and
numpy offers no way to set flush-to-zero, so without this a float32 step
runs about twice as long. The values changed are below 1.2e-38 in float32
and below 2.3e-308 in float64.

The logistic is numpy's exp, +1 and reciprocal, written in place, about a
third of the time of scipy's expit on the batched float32 gates. Its
negation is folded into the operands once per scan: the z/r columns of the
input gates and a copy of the z/r recurrent weights are negated, so each
step computes 1 / (1 + exp(-a)) with no extra pass. exp overflows to inf
for a < -88 in float32 (-709 in float64), and the gate is then exactly 0.
The recurrent weights are multiplied as C-contiguous copies of their
transposes, made once per scan; a product with the transposed view took
about twice as long. Every other product over (T, B, ...) arrays runs as
one (T*B, ...) GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rnx import neural
from rnx.features import EXTENDED_DIM, REFERENCE_DIM, FeatureStats, compute_stats

LOG_FLOOR = 1e-7
# below this the gamma-power branch treats the prediction as constant
POWER_FLOOR = 1e-12


@dataclass
class TrainConfig:
    epochs: int = 120
    steps_per_epoch: int = 8
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    sequence_len: int = 500
    batch_sequences: int = 32
    grad_clip_norm: float = 5.0
    gamma: float = 0.5
    vad_loss_weight: float = 0.5
    seed: int = 0


# ---------------------------------------------------------------------------
# loss


def _mask_loss_terms(m, m_hat, gamma):
    """Per-frame band loss and its gradient w.r.t. the predicted mask.

    Shapes: m and m_hat are (..., N); returns ((...,), (..., N)).
    Sentinel targets (m < 0) are masked out of both sums. The log argument
    is clamped to [LOG_FLOOR, 1], which keeps the loss finite everywhere
    and exactly zero for a perfect all-ones prediction.
    """
    m = np.asarray(m)
    m_hat = np.asarray(m_hat)
    n_bands = m.shape[-1]
    valid = m >= 0
    ms = np.where(valid, m, 0.0)

    m_clip = np.clip(m_hat, LOG_FLOOR, 1.0)
    m_log = np.log(m_clip)
    mp = np.maximum(m_hat, POWER_FLOOR)
    mp_gamma = mp**gamma
    diff = ms - m_hat
    d2 = diff * diff  # integer powers as products: float32 ** is a slow exp/log
    pow_gap = mp_gamma - ms**gamma

    first = 10.0 * (d2 * d2) + pow_gap * pow_gap - 0.01 * ms * m_log
    second_w = np.abs(ms - 0.5) * ms  # second-sum weight, halves cancel the 2x
    per_band = (10.0 / n_bands) * first - (1.0 / n_bands) * second_w * m_log
    loss = np.sum(np.where(valid, per_band, 0.0), axis=-1)

    dlog = np.where((m_hat > LOG_FLOOR) & (m_hat <= 1.0), 1.0 / m_clip, 0.0)
    dpow = np.where(m_hat > POWER_FLOOR, gamma * mp_gamma / mp, 0.0)
    dfirst = -40.0 * (d2 * diff) + 2.0 * pow_gap * dpow - 0.01 * ms * dlog
    grad = (10.0 / n_bands) * dfirst - (1.0 / n_bands) * second_w * dlog
    return loss, np.where(valid, grad, 0.0)


def loss(m: np.ndarray, m_hat: np.ndarray, gamma: float) -> float:
    """Band loss for one frame of targets and predictions."""
    value, _ = _mask_loss_terms(
        np.asarray(m, dtype=np.float64), np.asarray(m_hat, dtype=np.float64), gamma
    )
    return float(value)


def _bce_terms(target, pred):
    """Binary cross-entropy and d/dpred, with the prediction clamped."""
    target = np.asarray(target)
    pred = np.asarray(pred)
    pc = np.clip(pred, LOG_FLOOR, 1.0 - LOG_FLOOR)
    value = -(target * np.log(pc) + (1.0 - target) * np.log1p(-pc))
    inside = (pred > LOG_FLOOR) & (pred < 1.0 - LOG_FLOOR)
    grad = np.where(inside, (pc - target) / (pc * (1.0 - pc)), 0.0)
    return value, grad


def binary_cross_entropy(target: float, pred: float) -> float:
    value, _ = _bce_terms(np.float64(target), np.float64(pred))
    return float(value)


# ---------------------------------------------------------------------------
# forward / backward engine


def _flush_subnormals(a: np.ndarray, tiny) -> None:
    """Zero, in place, every entry with |a| < tiny; callers pass finfo(a.dtype).tiny."""
    a[np.abs(a) < tiny] = 0.0


def _logistic_of_negated(a: np.ndarray) -> np.ndarray:
    """a <- 1 / (1 + exp(a)), the logistic of -a, in place.

    Callers silence the overflow of exp: it yields inf, and then exactly 0.
    """
    np.exp(a, out=a)
    a += 1.0
    return np.reciprocal(a, out=a)


def _rows_times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w over the last axis of x (..., in), as one 2-D GEMM.

    numpy runs a (T, B, in) @ (in, out) product as T small GEMMs; one
    (T*B, in) GEMM took a third of the time on two OpenBLAS threads.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _act_forward(name, x):
    """Recurrent activation of x, in place."""
    if name == "relu":
        return np.maximum(x, 0.0, out=x)
    if name == "tanh":
        return np.tanh(x, out=x)
    raise ValueError(f"unsupported recurrent activation {name!r}")


@dataclass
class _GruCache:
    x: np.ndarray  # (T, B, in)
    h: np.ndarray  # (T+1, B, out), h[0] is the initial state
    zr: np.ndarray  # (T, B, 2*out): update gates z, then reset gates r
    c: np.ndarray  # (T, B, out) candidates

    @property
    def out(self):
        return self.h[1:]


def _gru_scan(layer, x):
    """Run one GRU over time-major inputs x (T, B, in) from a zero state."""
    t, b, _ = x.shape
    u = layer.out_dim
    dtype = x.dtype
    gx = _rows_times(x, layer.weights.T)
    gx += layer.bias
    np.negative(gx[..., : 2 * u], out=gx[..., : 2 * u])
    neg_u_zr = np.ascontiguousarray(-layer.recurrent[: 2 * u].T)
    u_c = np.ascontiguousarray(layer.recurrent[2 * u :].T)
    h = np.zeros((t + 1, b, u), dtype=dtype)
    zr = np.empty((t, b, 2 * u), dtype=dtype)
    c = np.empty((t, b, u), dtype=dtype)
    tiny = np.finfo(dtype).tiny
    with np.errstate(over="ignore"):
        for i in range(t):
            h_prev, h_t, zr_t, c_t = h[i], h[i + 1], zr[i], c[i]
            _logistic_of_negated(np.add(gx[i, :, : 2 * u], h_prev @ neg_u_zr, out=zr_t))
            z = zr_t[:, :u]
            _act_forward(layer.activation, np.add(gx[i, :, 2 * u :], (zr_t[:, u:] * h_prev) @ u_c, out=c_t))
            # h = z * h_prev + (1 - z) * c
            np.subtract(h_prev, c_t, out=h_t)
            h_t *= z
            h_t += c_t
            _flush_subnormals(h_t, tiny)
    return _GruCache(x, h, zr, c)


@dataclass
class _ForwardCache:
    feats: np.ndarray  # (T, B, F)
    dense: np.ndarray
    vad_gru: _GruCache
    noise_gru: _GruCache
    denoise_gru: _GruCache
    mask: np.ndarray  # (T, B, 22)
    vad: np.ndarray  # (T, B)


def _forward(model: neural.NetworkModel, feats: np.ndarray) -> _ForwardCache:
    """Forward pass with caches over batch-major feats (B, T, F); caches are time-major."""
    x = np.ascontiguousarray(feats.transpose(1, 0, 2))
    dense = _rows_times(x, model.dense_in.weights.T)
    dense += model.dense_in.bias
    np.tanh(dense, out=dense)
    g1 = _gru_scan(model.vad_gru, dense)
    g2 = _gru_scan(model.noise_gru, np.concatenate((dense, g1.out, x), axis=2))
    g3 = _gru_scan(model.denoise_gru, np.concatenate((g1.out, g2.out, x), axis=2))
    with np.errstate(over="ignore"):
        # -b - hW^T is exactly -(hW^T + b): rounding is symmetric in sign
        mask = _logistic_of_negated(-model.gains_out.bias - _rows_times(g3.out, model.gains_out.weights.T))
        vad = _logistic_of_negated(-model.vad_out.bias - _rows_times(g1.out, model.vad_out.weights.T))[..., 0]
    return _ForwardCache(x, dense, g1, g2, g3, mask, vad)


def _promote(feats, gains, vads):
    feats = np.asarray(feats)
    gains = np.asarray(gains)
    vads = np.asarray(vads)
    if feats.ndim == 2:
        feats, gains, vads = feats[None], gains[None], vads[None]
    return feats, gains, vads


def _time_major_loss_terms(fw: _ForwardCache, gains, vads, gamma, vad_weight):
    """Per-frame band loss, BCE, and their gradients, against (B, T, ...) targets."""
    band, d_mask = _mask_loss_terms(gains.transpose(1, 0, 2), fw.mask, gamma)
    bce, d_vad = _bce_terms(vads.T, fw.vad)
    return band + vad_weight * bce, d_mask, d_vad


def sequence_loss(model, feats, gains, vads, gamma=0.5, vad_weight=0.5) -> float:
    """Mean per-frame total loss over (batch of) sequences; forward only."""
    feats, gains, vads = _promote(feats, gains, vads)
    total, _, _ = _time_major_loss_terms(_forward(model, feats), gains, vads, gamma, vad_weight)
    return float(np.mean(total))


def _gru_gate_deltas(layer, cache: _GruCache, delta_out: np.ndarray) -> np.ndarray:
    """Backprop one GRU's recurrence; returns the (T, B, 3*out) gate pre-activation deltas."""
    t, b, u = delta_out.shape
    u_c = layer.recurrent[2 * u :]
    u_zr = layer.recurrent[: 2 * u]
    gates = np.empty((t, b, 3 * u), dtype=delta_out.dtype)
    carry = np.zeros((b, u), dtype=delta_out.dtype)
    relu = layer.activation == "relu"
    tiny = np.finfo(delta_out.dtype).tiny
    for i in range(t - 1, -1, -1):
        delta = delta_out[i] + carry
        h_prev, c, g = cache.h[i], cache.c[i], gates[i]
        z = cache.zr[i, :, :u]
        r = cache.zr[i, :, u:]
        d_zr = g[:, : 2 * u]
        one_minus_z = 1.0 - z
        if relu:
            np.multiply(delta * one_minus_z, c > 0, out=g[:, 2 * u :])
        else:
            np.multiply(delta * one_minus_z, 1.0 - c * c, out=g[:, 2 * u :])
        ds = g[:, 2 * u :] @ u_c
        np.multiply(delta * (h_prev - c) * z, one_minus_z, out=d_zr[:, :u])
        np.multiply(ds * h_prev * r, 1.0 - r, out=d_zr[:, u:])
        _flush_subnormals(d_zr, tiny)
        carry = delta * z + ds * r + d_zr @ u_zr
        _flush_subnormals(carry, tiny)
    return gates


def _gru_backward(layer, cache: _GruCache, delta_out: np.ndarray, n_in: int):
    """Backprop one GRU over its scan; returns (dW, dU, db, dX), dX time-major.

    dX covers only the first n_in input columns: the ones fed by upstream
    layers. The raw feature columns have no gradient to carry.
    """
    t, b, u = delta_out.shape
    gates = _gru_gate_deltas(layer, cache, delta_out).reshape(t * b, 3 * u)
    h_prev = cache.h[:t].reshape(t * b, u)
    s = (cache.zr[..., u:] * cache.h[:t]).reshape(t * b, u)
    d_u = np.empty_like(layer.recurrent)
    d_u[: 2 * u] = gates[:, : 2 * u].T @ h_prev
    d_u[2 * u :] = gates[:, 2 * u :].T @ s
    d_w = gates.T @ cache.x.reshape(t * b, -1)
    d_x = (gates @ layer.weights[:, :n_in]).reshape(t, b, n_in)
    return d_w, d_u, gates.sum(axis=0), d_x


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place to the global norm cap; returns the raw norm."""
    total = float(np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values())))
    if max_norm is not None and total > max_norm > 0.0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def backward_tbptt(
    model: neural.NetworkModel,
    feats: np.ndarray,
    gains: np.ndarray,
    vads: np.ndarray,
    gamma: float = 0.5,
    vad_weight: float = 0.5,
    clip_norm: float | None = 5.0,
):
    """Exact gradients of the mean total loss over the given sequences.

    feats is (B, T, F) already standardized, gains (B, T, 22) with -1
    sentinels, vads (B, T). Returns (grads keyed like model.parameters(),
    mean loss). Gradients are clipped to the global norm unless clip_norm
    is None. Hidden states start at zero for every sequence.
    """
    feats, gains, vads = _promote(feats, gains, vads)
    b, t, _ = feats.shape
    if feats.shape[2] != model.feature_dim:
        raise ValueError(f"feature width {feats.shape[2]} != model feature_dim {model.feature_dim}")
    fw = _forward(model, feats)

    total, d_mask, d_vad = _time_major_loss_terms(fw, gains, vads, gamma, vad_weight)
    mean_loss = float(np.mean(total))
    scale = 1.0 / (b * t)
    d_mask = d_mask * scale
    d_vad = d_vad * (vad_weight * scale)

    n1 = model.dense_in.out_dim
    n2 = model.vad_gru.out_dim
    n3 = model.noise_gru.out_dim

    grads: dict[str, np.ndarray] = {}

    da_g = d_mask * fw.mask * (1.0 - fw.mask)
    h3_flat = fw.denoise_gru.out.reshape(t * b, -1)
    grads["gains_out.W"] = da_g.reshape(t * b, -1).T @ h3_flat
    grads["gains_out.b"] = da_g.sum(axis=(0, 1))
    d_h3 = _rows_times(da_g, model.gains_out.weights)

    da_v = (d_vad * fw.vad * (1.0 - fw.vad))[..., None]
    h1_flat = fw.vad_gru.out.reshape(t * b, -1)
    grads["vad_out.W"] = da_v.reshape(t * b, 1).T @ h1_flat
    grads["vad_out.b"] = da_v.sum(axis=(0, 1))
    d_h1 = _rows_times(da_v, model.vad_out.weights)

    d_w, d_u, d_b, d_x3 = _gru_backward(model.denoise_gru, fw.denoise_gru, d_h3, n2 + n3)
    grads["denoise_gru.W"], grads["denoise_gru.U"], grads["denoise_gru.b"] = d_w, d_u, d_b
    d_h1 = d_h1 + d_x3[..., :n2]
    d_h2 = d_x3[..., n2:]

    d_w, d_u, d_b, d_x2 = _gru_backward(model.noise_gru, fw.noise_gru, d_h2, n1 + n2)
    grads["noise_gru.W"], grads["noise_gru.U"], grads["noise_gru.b"] = d_w, d_u, d_b
    d_dense = d_x2[..., :n1]
    d_h1 = d_h1 + d_x2[..., n1:]

    d_w, d_u, d_b, d_x1 = _gru_backward(model.vad_gru, fw.vad_gru, d_h1, n1)
    grads["vad_gru.W"], grads["vad_gru.U"], grads["vad_gru.b"] = d_w, d_u, d_b
    d_dense = d_dense + d_x1

    da_d = d_dense * (1.0 - fw.dense * fw.dense)
    grads["dense_in.W"] = da_d.reshape(t * b, -1).T @ fw.feats.reshape(t * b, -1)
    grads["dense_in.b"] = da_d.sum(axis=(0, 1))

    if not np.isfinite(mean_loss):
        raise RuntimeError("non-finite training loss; aborting step")
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient in {key}; aborting step")
    if clip_norm is not None:
        clip_gradients(grads, clip_norm)
    return grads, mean_loss


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            {k: np.zeros_like(p) for k, p in params.items()},
            {k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_update(params, grads, state: AdamState, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam step, updating params in place."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for key, p in params.items():
        g = grads[key]
        m = state.m[key]
        v = state.v[key]
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckResult:
    instances: int
    checked: int
    failures: int
    max_rel_err: float
    max_abs_err: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def gradient_check(
    seed: int = 0,
    instances: int = 20,
    feature_dim: int = EXTENDED_DIM,
    sequence_len: int = 5,
    widths=(4, 3, 5, 6),
    step: float = 1e-4,
    rel_tol: float = 1e-4,
    abs_tol: float = 1e-7,
) -> GradCheckResult:
    """Verify every analytic gradient against central finite differences.

    Uses reduced-width models with the standard wiring so the whole
    parameter set can be swept. A coordinate passes when the difference is
    within abs_tol or within rel_tol of the larger magnitude.
    """
    rng = np.random.default_rng(seed)
    checked = failures = 0
    max_rel = max_abs = 0.0
    for _ in range(instances):
        model = neural.build_model(feature_dim, widths, seed=rng)
        feats = rng.normal(size=(1, sequence_len, feature_dim))
        gains = rng.uniform(0.0, 1.0, size=(1, sequence_len, neural.NUM_GAINS))
        gains[rng.random(gains.shape) < 0.1] = -1.0
        vads = rng.integers(0, 2, size=(1, sequence_len)).astype(np.float64)

        grads, _ = backward_tbptt(model, feats, gains, vads, clip_norm=None)
        params = model.parameters()
        for key, p in params.items():
            analytic = grads[key]
            flat = p.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = sequence_loss(model, feats, gains, vads)
                flat[idx] = orig - step
                down = sequence_loss(model, feats, gains, vads)
                flat[idx] = orig
                fd = (up - down) / (2.0 * step)
                a = analytic.reshape(-1)[idx]
                err = abs(a - fd)
                denom = max(abs(a), abs(fd))
                checked += 1
                max_abs = max(max_abs, err)
                if denom > 0:
                    rel = err / denom
                    if err > abs_tol:
                        max_rel = max(max_rel, rel)
                if err > abs_tol and err > rel_tol * denom:
                    failures += 1
    return GradCheckResult(instances, checked, failures, max_rel, max_abs)


# ---------------------------------------------------------------------------
# the training loop


def _set_precision(model: neural.NetworkModel, dtype):
    for layer in model.layers():
        layer.weights = layer.weights.astype(dtype)
        if layer.recurrent is not None:
            layer.recurrent = layer.recurrent.astype(dtype)
        layer.bias = layer.bias.astype(dtype)


def train(
    data,
    cfg: TrainConfig,
    mode: str = "extended",
    precision=np.float32,
    on_step=None,
) -> neural.NetworkModel:
    """Train a fresh model on a feature dataset.

    `data` carries feature_dim, features (raw), gains, and vad arrays (see
    rnx.dataset.FeatureDataset). Extended-feature statistics are computed
    from the whole dataset, frozen into the model, and applied before
    training. Arithmetic runs in float32 by default (the model file stores
    float32 anyway); pass np.float64 for full-precision runs. Fixed seeds
    give bit-identical results.
    """
    if mode not in ("reference", "extended"):
        raise ValueError(f"unknown mode {mode!r}")
    want_dim = EXTENDED_DIM if mode == "extended" else REFERENCE_DIM
    if data.feature_dim != want_dim:
        raise ValueError(
            f"dataset feature_dim {data.feature_dim} does not match {mode} mode ({want_dim})"
        )
    feats = np.asarray(data.features, dtype=np.float64)
    n = feats.shape[0]
    if n == 0:
        raise ValueError("empty dataset")

    model = neural.init_weights(cfg.seed, want_dim)
    if mode == "extended":
        stats = compute_stats(feats[:, REFERENCE_DIM:])
        # freeze at file precision so training and later inference agree
        stats = FeatureStats(
            stats.mean.astype(np.float32).astype(np.float64),
            stats.std.astype(np.float32).astype(np.float64),
        )
        model.stats = stats
        feats = feats.copy()
        feats[:, REFERENCE_DIM:] = (feats[:, REFERENCE_DIM:] - stats.mean) / stats.std

    total_steps = cfg.epochs * cfg.steps_per_epoch
    if total_steps > 0:
        if n < cfg.sequence_len:
            raise ValueError(f"dataset has {n} frames, smaller than one {cfg.sequence_len}-frame sequence")
        _set_precision(model, precision)
        x_all = feats.astype(precision)
        g_all = np.asarray(data.gains, dtype=precision)
        v_all = np.asarray(data.vad, dtype=precision)
        params = model.parameters()
        adam = AdamState.init_like(params)
        draw = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
        offsets = np.arange(cfg.sequence_len)
        for epoch in range(1, cfg.epochs + 1):
            for step in range(1, cfg.steps_per_epoch + 1):
                starts = draw.integers(0, n - cfg.sequence_len + 1, size=cfg.batch_sequences)
                rows = starts[:, None] + offsets
                grads, step_loss = backward_tbptt(
                    model, x_all[rows], g_all[rows], v_all[rows],
                    gamma=cfg.gamma, vad_weight=cfg.vad_loss_weight,
                    clip_norm=cfg.grad_clip_norm,
                )
                adam_update(
                    params, grads, adam, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps
                )
                if on_step is not None:
                    on_step(epoch, step, step_loss)
        _set_precision(model, np.float64)
    return model
