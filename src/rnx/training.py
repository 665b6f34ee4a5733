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
the features once, and every activation and gate delta after that is
time-major (T, B, ...), so each recurrence step reads and writes
one contiguous (B, ...) slice. Parameter gradients sum over all T*B rows
and need no transpose back.

The forward pass is `neural.forward`, the engine the denoiser runs, over
the (T, B, F) batch: its batched products, its logistic and its flush of
subnormal states (see `neural`), and every layer's activations by name.
The backward pass walks `neural.WIRING` in reverse from the two heads'
loss gradients: each layer turns its output delta into parameter
gradients and, by one product over its upstream input columns, into
deltas for its sources, which a source sums in table-reverse order. It
flushes its carry and its z/r gate deltas as the forward pass does.

`train` runs each step on two cores through `worker.halves`: the batch's
first ceil(B/2) sequences run `backward_tbptt` in the calling process and
the rest in the worker, which receives the model and its half's rows with
every step (about 2.5 MB at B = 32, T = 500). The caller weights each
half's gradients and loss by its share of the rows (exactly 1/2 each for
an even B), then clips the global norm once and takes the Adam step.
Both processes run OpenBLAS on one thread for the whole loop, `on_step`
included, and the caller's count is restored when `train` returns or
raises. `gradient_check` splits its instances between the two processes
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rnx import neural, worker
from rnx.features import EXTENDED_DIM, REFERENCE_DIM, FeatureStats, compute_stats, feature_rows, mode_dim

LOG_FLOOR = 1e-7
# the global gradient norm each training step is clipped to
CLIP_NORM = 5.0
# below this the gamma-power branch treats the prediction as constant
POWER_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# gradient_check: reduced layer widths, central-difference step, and the
# tolerances a coordinate must meet
GRADCHECK_WIDTHS = (4, 3, 5, 6)
GRADCHECK_STEP = 1e-4
GRADCHECK_REL_TOL = 1e-4
GRADCHECK_ABS_TOL = 1e-7


@dataclass
class TrainConfig:
    epochs: int = 120
    steps_per_epoch: int = 8
    learning_rate: float = 0.001
    sequence_len: int = 500
    batch_sequences: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.batch_sequences < 1 or self.sequence_len < 1:
            raise ValueError("batch_sequences and sequence_len must be at least 1")
        if self.epochs < 0 or self.steps_per_epoch < 0:
            raise ValueError("epochs and steps_per_epoch must not be negative")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be finite and positive")


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


def _bce_terms(target, pred):
    """Binary cross-entropy and d/dpred, with the prediction clamped."""
    target = np.asarray(target)
    pred = np.asarray(pred)
    pc = np.clip(pred, LOG_FLOOR, 1.0 - LOG_FLOOR)
    value = -(target * np.log(pc) + (1.0 - target) * np.log1p(-pc))
    inside = (pred > LOG_FLOOR) & (pred < 1.0 - LOG_FLOOR)
    grad = np.where(inside, (pc - target) / (pc * (1.0 - pc)), 0.0)
    return value, grad


# ---------------------------------------------------------------------------
# forward / backward engine


def _forward(model: neural.NetworkModel, feats: np.ndarray) -> dict[str, neural.LayerActivations]:
    """The engine over batch-major feats (B, T, F) from zero states; its activations are time-major."""
    x = np.ascontiguousarray(feats.transpose(1, 0, 2))
    return neural.forward(model, x, neural.HiddenState.zeros(model))


def _time_major_loss_terms(fw, gains, vads, gamma, vad_weight):
    """Per-frame band loss, BCE, and their gradients, against (B, T, ...) targets."""
    t, b = fw["vad_out"].out.shape[:2]
    if gains.shape != (b, t, neural.NUM_GAINS) or vads.shape != (b, t):
        raise ValueError(
            f"targets: gains {gains.shape} and vads {vads.shape} are not "
            f"({b}, {t}, {neural.NUM_GAINS}) and ({b}, {t}) for the (B, T, F) features"
        )
    band, d_mask = _mask_loss_terms(gains.transpose(1, 0, 2), fw["gains_out"].out, gamma)
    bce, d_vad = _bce_terms(vads.T, fw["vad_out"].out[..., 0])
    return band + vad_weight * bce, d_mask, d_vad


def sequence_loss(model, feats, gains, vads, gamma=0.5, vad_weight=0.5) -> float:
    """Mean per-frame total loss over (B, T, ...) sequences; forward only."""
    total, _, _ = _time_major_loss_terms(_forward(model, feats), gains, vads, gamma, vad_weight)
    return float(np.mean(total))


def _gru_gate_deltas(layer, cache: neural.LayerActivations, delta_out: np.ndarray) -> np.ndarray:
    """Backprop one GRU's recurrence; returns the (T, B, 3*out) gate pre-activation deltas."""
    t, b, u = delta_out.shape
    u_c = layer.recurrent[2 * u :]
    u_zr = layer.recurrent[: 2 * u]
    gates = np.empty((t, b, 3 * u), dtype=delta_out.dtype)
    carry = np.zeros((b, u), dtype=delta_out.dtype)
    tiny = np.finfo(delta_out.dtype).tiny
    for i in range(t - 1, -1, -1):
        delta = delta_out[i] + carry
        h_prev, c, g = cache.h[i], cache.c[i], gates[i]
        z = cache.zr[i, :, :u]
        r = cache.zr[i, :, u:]
        d_zr = g[:, : 2 * u]
        one_minus_z = 1.0 - z
        np.multiply(delta * one_minus_z, c > 0, out=g[:, 2 * u :])  # the ReLU candidate's derivative
        ds = g[:, 2 * u :] @ u_c
        np.multiply(delta * (h_prev - c) * z, one_minus_z, out=d_zr[:, :u])
        np.multiply(ds * h_prev * r, 1.0 - r, out=d_zr[:, u:])
        neural.flush_subnormals(d_zr, tiny)
        carry = delta * z + ds * r + d_zr @ u_zr
        neural.flush_subnormals(carry, tiny)
    return gates


def _gru_backward(layer, cache: neural.LayerActivations, delta_out: np.ndarray):
    """Backprop one GRU over its scan; returns (gate deltas (T, B, 3*out), dU)."""
    t, b, u = delta_out.shape
    gates = _gru_gate_deltas(layer, cache, delta_out)
    flat = gates.reshape(t * b, 3 * u)
    h_prev = cache.h[:t].reshape(t * b, u)
    s = (cache.zr[..., u:] * cache.h[:t]).reshape(t * b, u)
    d_u = np.empty_like(layer.recurrent)
    d_u[: 2 * u] = flat[:, : 2 * u].T @ h_prev
    d_u[2 * u :] = flat[:, 2 * u :].T @ s
    return gates, d_u


def _dense_delta(act: str, d_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A dense layer's pre-activation delta from its output delta and output (tanh or sigmoid)."""
    if act == "tanh":
        return d_out * (1.0 - out * out)
    return d_out * out * (1.0 - out)


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place to the global norm cap; returns the raw norm."""
    total = float(np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values())))
    if total > max_norm > 0.0:
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
):
    """Exact, unclipped gradients of the mean total loss over the given sequences.

    feats is (B, T, F) already standardized, gains (B, T, 22) with -1
    sentinels, vads (B, T). Returns (grads keyed like model.parameters(),
    mean loss). Hidden states start at zero for every sequence.
    """
    if feats.ndim != 3 or feats.shape[2] != model.feature_dim:
        raise ValueError(f"features {feats.shape} are not (B, T, model feature_dim {model.feature_dim})")
    b, t, _ = feats.shape
    fw = _forward(model, feats)

    total, d_mask, d_vad = _time_major_loss_terms(fw, gains, vads, gamma, vad_weight)
    mean_loss = float(np.mean(total))
    scale = 1.0 / (b * t)
    # output deltas by layer, seeded by the heads' loss gradients; each
    # layer's consumers come later in the table, so walking it in reverse
    # completes a layer's delta before the layer is reached
    deltas = {"gains_out": d_mask * scale, "vad_out": (d_vad * (vad_weight * scale))[..., None]}
    grads: dict[str, np.ndarray] = {}
    for name, kind, act, sources in reversed(neural.WIRING):
        layer, cache = getattr(model, name), fw[name]
        if kind:
            da, grad_u = _gru_backward(layer, cache, deltas.pop(name))
        else:
            da = _dense_delta(neural.ACTIVATIONS[act], deltas.pop(name), cache.out)
        flat = da.reshape(t * b, -1)
        grads[f"{name}.W"] = flat.T @ cache.x.reshape(t * b, -1)
        if kind:
            grads[f"{name}.U"] = grad_u
        grads[f"{name}.b"] = flat.sum(axis=0)
        # one product over the upstream columns (the raw features carry no
        # gradient), then split by source: a product per source rounds differently
        upstream = [source for source in sources if source != "features"]
        if upstream:
            widths = [fw[source].out.shape[-1] for source in upstream]
            d_x = neural.rows_times(da, layer.weights[:, : sum(widths)])
            for source, part in zip(upstream, np.split(d_x, np.cumsum(widths)[:-1], axis=-1)):
                deltas[source] = deltas[source] + part if source in deltas else part

    if not np.isfinite(mean_loss):
        raise RuntimeError("non-finite training loss; aborting step")
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient in {key}; aborting step")
    return grads, mean_loss


def _gradients(model, feats, gains, vads):
    """backward_tbptt by a name that pickles: a tracer's wrapper around it (perfbench's) does not."""
    return backward_tbptt(model, feats, gains, vads)


def batch_gradients(model, feats, gains, vads):
    """backward_tbptt's (grads, mean loss) over (B, T, ...) sequences, in `worker.halves`.

    Each half's gradients and loss are weighted by its share of the B rows.
    """
    b = len(feats)
    cut = (b + 1) // 2
    (grads, loss), *rest = worker.halves(_gradients, (feats, gains, vads), model)
    for other, other_loss in rest:  # the worker's half, when B > 1
        w_mine, w_theirs = cut / b, (b - cut) / b
        for key, g in grads.items():
            g *= w_mine
            g += other[key] * w_theirs
        loss = loss * w_mine + other_loss * w_theirs
    return grads, loss


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


def adam_update(params, grads, state: AdamState, lr):
    """One bias-corrected Adam step, updating params in place."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for key, p in params.items():
        g = grads[key]
        m = state.m[key]
        v = state.v[key]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
) -> GradCheckResult:
    """Verify every analytic gradient against central finite differences.

    Uses reduced-width models with the standard wiring so the whole
    parameter set can be swept. A coordinate passes when the difference is
    within GRADCHECK_ABS_TOL or within GRADCHECK_REL_TOL of the larger
    magnitude. Fewer than one instance raises ValueError: a check of
    nothing must not pass.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(instances):
        model = neural.build_model(feature_dim, GRADCHECK_WIDTHS, seed=rng)
        feats = rng.normal(size=(1, sequence_len, feature_dim))
        gains = rng.uniform(0.0, 1.0, size=(1, sequence_len, neural.NUM_GAINS))
        gains[rng.random(gains.shape) < 0.1] = -1.0
        vads = rng.integers(0, 2, size=(1, sequence_len)).astype(np.float64)
        drawn.append((model, feats, gains, vads))
    with worker.one_blas_thread():
        parts = worker.halves(_check_instances, (drawn,))
    checked = sum(part[0] for part in parts)
    failures = sum(part[1] for part in parts)
    return GradCheckResult(
        instances, checked, failures, max(part[2] for part in parts), max(part[3] for part in parts)
    )


def _check_instances(drawn):
    """(coordinates checked, failures, max relative error, max absolute error) over drawn instances."""
    checked = failures = 0
    max_rel = max_abs = 0.0
    for model, feats, gains, vads in drawn:
        grads, _ = backward_tbptt(model, feats, gains, vads)
        params = model.parameters()
        for key, p in params.items():
            analytic = grads[key]
            flat = p.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + GRADCHECK_STEP
                up = sequence_loss(model, feats, gains, vads)
                flat[idx] = orig - GRADCHECK_STEP
                down = sequence_loss(model, feats, gains, vads)
                flat[idx] = orig
                fd = (up - down) / (2.0 * GRADCHECK_STEP)
                a = analytic.reshape(-1)[idx]
                err = abs(a - fd)
                denom = max(abs(a), abs(fd))
                checked += 1
                max_abs = max(max_abs, err)
                if denom > 0:
                    rel = err / denom
                    if err > GRADCHECK_ABS_TOL:
                        max_rel = max(max_rel, rel)
                if err > GRADCHECK_ABS_TOL and err > GRADCHECK_REL_TOL * denom:
                    failures += 1
    return checked, failures, max_rel, max_abs


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
    on_step=None,
) -> neural.NetworkModel:
    """Train a fresh model on a feature dataset.

    `data` carries feature_dim, features (raw), gains, and vad arrays (see
    rnx.dataset.FeatureDataset). Extended-feature statistics are computed
    from the whole dataset, frozen into the model, and applied before
    training. Arithmetic runs in float32 (the model file stores float32
    anyway). Fixed seeds give bit-identical results.
    """
    want_dim = mode_dim(mode)
    if data.feature_dim != want_dim:
        raise ValueError(
            f"dataset feature_dim {data.feature_dim} does not match {mode} mode ({want_dim})"
        )
    feats = np.asarray(data.features, dtype=np.float64)
    n = feats.shape[0]
    if n == 0:
        raise ValueError("empty dataset")

    model = neural.init_weights(cfg.seed, want_dim)
    base, trio = feats[:, :REFERENCE_DIM], feats[:, REFERENCE_DIM:]
    if want_dim == EXTENDED_DIM:
        stats = compute_stats(trio)
        # freeze at file precision so training and later inference agree
        model.stats = FeatureStats(
            stats.mean.astype(np.float32).astype(np.float64),
            stats.std.astype(np.float32).astype(np.float64),
        )
    feats = feature_rows(base, trio, want_dim, model.stats)

    total_steps = cfg.epochs * cfg.steps_per_epoch
    if total_steps > 0:
        if n < cfg.sequence_len:
            raise ValueError(f"dataset has {n} frames, smaller than one {cfg.sequence_len}-frame sequence")
        _set_precision(model, np.float32)
        x_all = feats.astype(np.float32)
        g_all = np.asarray(data.gains, dtype=np.float32)
        v_all = np.asarray(data.vad, dtype=np.float32)
        params = model.parameters()
        adam = AdamState.init_like(params)
        draw = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
        offsets = np.arange(cfg.sequence_len)
        with worker.one_blas_thread():
            for epoch in range(1, cfg.epochs + 1):
                for step in range(1, cfg.steps_per_epoch + 1):
                    starts = draw.integers(0, n - cfg.sequence_len + 1, size=cfg.batch_sequences)
                    rows = starts[:, None] + offsets
                    grads, step_loss = batch_gradients(model, x_all[rows], g_all[rows], v_all[rows])
                    clip_gradients(grads, CLIP_NORM)
                    adam_update(params, grads, adam, cfg.learning_rate)
                    if on_step is not None:
                        on_step(epoch, step, step_loss)
        _set_precision(model, np.float64)
    return model
