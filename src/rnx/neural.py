"""Dense/GRU network engine and model serialization.

The model is six layers in a fixed wiring: a tanh input dense layer feeds
a small GRU whose state drives the sigmoid voice-activity head; two
further GRUs consume concatenations of earlier activations plus the raw
features (skip connections) and the largest one drives the sigmoid
22-gain head. Hidden widths 24+24+48+96 plus output widths 22+1 give 215
units total, asserted at construction. `WIRING` is the single source of
the layers' names, kinds, activations and connections: the model file
must carry exactly its codes, and the forward pass, the backward pass
(`training`), `validate_wiring` and `build_model` all walk it.

GRU convention, gate order [update z, reset r, candidate c]; the
candidate is always ReLU:

    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    c = relu(Wc x + Uc (r * h) + bc)
    h' = z * h + (1 - z) * c = c + z * (h - c)

Weights live in float64 in memory and as float32 in the model file; fresh
models are rounded through float32 at init so a save/load round trip is
bit-exact.

One engine, `forward`, runs the wiring over time-major frames: a (T, F)
block of consecutive frames (a streamed hop is a block of one) for
`network_forward`, or a (T, B, F) batch of sequences for training. It
keeps every activation the backward pass reads. The products follow one
rule, the rank of the input: a (T, B, .) batch multiplies all its rows
by one 2-D GEMM (`rows_times`) and its states by C-contiguous copies of
the transposed recurrent weights, which took half the time of views;
anything else multiplies row by row (np.matvec) and by views of the
transposed weights, which keeps a k-row block bitwise equal to k
one-row blocks (a C-contiguous copy changes the bits).

The logistic is numpy's exp, +1 and reciprocal of -a in place, a third of
the time of scipy's expit on batched float32 gates. exp overflows to inf
for a < -88 in float32 (-709 in float64), giving exactly 0; `forward`
silences that with np.errstate(over="ignore").

Each step sets every state entry with |h| < finfo(dtype).tiny to 0. A
ReLU candidate is often exactly 0, and h then decays by z each frame into
the subnormal range, where x86 takes a slow microcode path that numpy
cannot switch off (a float32 training step took about twice as long).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from rnx.features import EXTENDED_DIM, REFERENCE_DIM, FeatureStats

MAGIC = b"RNXM"
FORMAT_VERSION = 1

HIDDEN_WIDTHS = (24, 24, 48, 96)
NUM_GAINS = 22
# the two heads' fixed output widths; the other layers take HIDDEN_WIDTHS in table order
HEAD_WIDTHS = {"vad_out": 1, "gains_out": NUM_GAINS}
TOTAL_UNITS = sum(HIDDEN_WIDTHS) + sum(HEAD_WIDTHS.values())

# The six layers in file and evaluation order: (name, kind code, activation
# code, input sources). Kind 0 is dense and 1 a GRU; activation 0 is tanh,
# 1 ReLU (a GRU's candidate) and 2 sigmoid. A layer's input is its sources'
# outputs concatenated in order; "features" is the raw feature row and comes
# last, so the columns that carry gradient upstream are a prefix.
WIRING = (
    ("dense_in", 0, 0, ("features",)),
    ("vad_gru", 1, 1, ("dense_in",)),
    ("noise_gru", 1, 1, ("dense_in", "vad_gru", "features")),
    ("denoise_gru", 1, 1, ("vad_gru", "noise_gru", "features")),
    ("vad_out", 0, 2, ("vad_gru",)),
    ("gains_out", 0, 2, ("denoise_gru",)),
)
ACTIVATIONS = ("tanh", "relu", "sigmoid")  # by activation code
_GRU_SLOTS = tuple(name for name, kind, _, _ in WIRING if kind)


class ModelFormatError(ValueError):
    """Raised for malformed model files or inconsistent layer wiring."""


def activate(name: str, a: np.ndarray) -> np.ndarray:
    """The activation `name` of a, in place; returns a."""
    if name == "tanh":
        return np.tanh(a, out=a)
    if name == "relu":
        return np.maximum(a, 0.0, out=a)
    if name == "sigmoid":
        np.negative(a, out=a)
        np.exp(a, out=a)
        a += 1.0
        return np.reciprocal(a, out=a)
    raise ValueError(f"unknown activation {name!r}")


# finfo(dtype).tiny of the network's two dtypes, looked up once instead of per scan
_TINY = {np.dtype(t): np.finfo(t).tiny for t in (np.float32, np.float64)}


def flush_subnormals(a: np.ndarray, tiny) -> None:
    """Zero, in place, every entry with |a| < tiny; callers pass finfo(a.dtype).tiny."""
    a[np.abs(a) < tiny] = 0.0


@dataclass
class LayerParams:
    """One layer's arrays; it is a GRU exactly when `recurrent` is set."""

    name: str
    weights: np.ndarray  # dense: (out, in); gru: (3*out, in), blocks [z, r, c]
    recurrent: np.ndarray | None  # gru only: (3*out, out)
    bias: np.ndarray  # dense: (out,); gru: (3*out,)

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != self.weights.shape[:1]:
            raise ModelFormatError(f"layer {self.name}: weight and bias shapes disagree")
        rows = len(self.weights)
        if self.recurrent is not None and (rows % 3 or self.recurrent.shape != (rows, rows // 3)):
            raise ModelFormatError(f"layer {self.name}: bad recurrent weight shape")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        rows = self.weights.shape[0]
        return rows if self.recurrent is None else rows // 3


@dataclass
class NetworkModel:
    feature_dim: int
    dense_in: LayerParams
    vad_gru: LayerParams
    noise_gru: LayerParams
    denoise_gru: LayerParams
    vad_out: LayerParams
    gains_out: LayerParams
    stats: FeatureStats | None = None

    @property
    def extended(self) -> bool:
        return self.feature_dim == EXTENDED_DIM

    @property
    def total_units(self) -> int:
        return sum(layer.out_dim for layer in self.layers())

    def layers(self):
        return [getattr(self, slot[0]) for slot in WIRING]

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by '<layer>.<tensor>'."""
        out = {}
        for layer in self.layers():
            out[f"{layer.name}.W"] = layer.weights
            if layer.recurrent is not None:
                out[f"{layer.name}.U"] = layer.recurrent
            out[f"{layer.name}.b"] = layer.bias
        return out

    def validate_wiring(self):
        """Each layer's kind, its input width against its sources' widths, and the heads' widths."""
        widths = {"features": self.feature_dim}
        for layer, (name, kind, _, sources) in zip(self.layers(), WIRING):
            if (layer.recurrent is not None) != (kind == 1):
                raise ModelFormatError(f"layer {name}: recurrent weights do not match its slot's kind")
            if layer.in_dim != sum(widths[source] for source in sources):
                raise ModelFormatError(f"dim inconsistency: {name} input width")
            if layer.out_dim != HEAD_WIDTHS.get(name, layer.out_dim):
                raise ModelFormatError(f"dim inconsistency: {name} output width")
            widths[name] = layer.out_dim


@dataclass
class HiddenState:
    """One state per GRU slot of WIRING, in table order."""

    h_vad: np.ndarray
    h_noise: np.ndarray
    h_denoise: np.ndarray

    def __iter__(self):
        return iter((self.h_vad, self.h_noise, self.h_denoise))

    @classmethod
    def zeros(cls, model: NetworkModel) -> "HiddenState":
        return cls(*[np.zeros(getattr(model, name).out_dim) for name in _GRU_SLOTS])


def rows_times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w over the last axis of x (..., in), as one 2-D GEMM.

    numpy runs a (T, B, in) @ (in, out) product as T small GEMMs; one
    (T*B, in) GEMM took a third of the time on two OpenBLAS threads.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def gru_input(layer: LayerParams, x: np.ndarray) -> np.ndarray:
    """W x + b per row of (..., in_dim) inputs: a GRU's [z, r, c] input gates, or a dense pre-activation.

    A (T, B, in_dim) batch takes one GEMM, anything else np.matvec (the rank rule, see above).
    """
    x = np.asarray(x)
    if x.shape[-1] != layer.in_dim:
        raise ValueError(f"layer {layer.name}: input width {x.shape[-1]} != {layer.in_dim}")
    a = rows_times(x, layer.weights.T) if x.ndim == 3 else np.matvec(layer.weights, x)
    a += layer.bias
    return a


def _gru_step(gates_x, h, u_zr, u_c, zr, c, h_out, tiny) -> None:
    """One step from input gates and state h into zr, c, h_out; u_zr, u_c are U[:2u].T, U[2u:].T."""
    u = h.shape[-1]
    activate("sigmoid", np.add(gates_x[..., : 2 * u], h @ u_zr, out=zr))
    activate("relu", np.add(gates_x[..., 2 * u :], (zr[..., u:] * h) @ u_c, out=c))
    np.subtract(h, c, out=h_out)
    h_out *= zr[..., :u]
    h_out += c
    flush_subnormals(h_out, tiny)


def gru_scan(layer: LayerParams, gates_x: np.ndarray, h0: np.ndarray):
    """The recurrence over the leading time axis of input gates (T, ..., 3u) from the state h0 (..., u).

    Returns the states h (T+1, ..., u) with h[0] = h0, the z then r gates
    zr (T, ..., 2u) and the candidates c (T, ..., u). (T, B, 3u) gates take
    C-contiguous copies of U[:2u].T and U[2u:].T, anything else views.
    """
    u = layer.out_dim
    u_zr, u_c = layer.recurrent[: 2 * u].T, layer.recurrent[2 * u :].T
    if gates_x.ndim == 3:
        u_zr, u_c = np.ascontiguousarray(u_zr), np.ascontiguousarray(u_c)
    t, lead, dtype = len(gates_x), gates_x.shape[1:-1], gates_x.dtype
    h = np.empty((t + 1, *lead, u), dtype)
    h[0] = h0
    zr = np.empty((t, *lead, 2 * u), dtype)
    c = np.empty((t, *lead, u), dtype)
    tiny = _TINY[dtype]
    for i in range(t):
        _gru_step(gates_x[i], h[i], u_zr, u_c, zr[i], c[i], h[i + 1], tiny)
    return h, zr, c


@dataclass(slots=True)  # slots: 40% less time to build than a NamedTuple, and a hop builds six
class LayerActivations:
    """One layer's activations over time-major frames; h, zr and c are a GRU's only."""

    x: np.ndarray  # (T, ..., in) inputs
    out: np.ndarray  # (T, ..., out) outputs; a GRU's are h[1:]
    h: np.ndarray | None = None  # (T+1, ..., out), h[0] is the initial state
    zr: np.ndarray | None = None  # (T, ..., 2*out): update gates z, then reset gates r
    c: np.ndarray | None = None  # (T, ..., out) candidates


def forward(model: NetworkModel, x: np.ndarray, state: HiddenState) -> dict[str, LayerActivations]:
    """The wiring over time-major frames x, (T, F) or (T, B, F), from `state`; every layer's activations by name.

    Each dense layer and each GRU's input projection runs once for all
    frames; only the recurrence steps loop over time. A (T, B, F) batch
    broadcasts (u,) states over its B sequences. Neither the model nor the
    state is mutated.
    """
    outs = {"features": x}
    acts = {}
    h0 = iter(state)
    with np.errstate(over="ignore"):
        for name, kind, act, sources in WIRING:
            layer = getattr(model, name)
            if len(sources) == 1:
                layer_x = outs[sources[0]]
            else:
                layer_x = np.concatenate([outs[source] for source in sources], axis=-1)
            a = gru_input(layer, layer_x)
            if kind:
                h, zr, c = gru_scan(layer, a, next(h0))
                outs[name] = h[1:]
                acts[name] = LayerActivations(layer_x, outs[name], h, zr, c)
            else:
                outs[name] = activate(ACTIVATIONS[act], a)
                acts[name] = LayerActivations(layer_x, outs[name])
    return acts


def network_forward(model: NetworkModel, features: np.ndarray, state: HiddenState):
    """Run the full wiring over a (k, feature_dim) block of consecutive frames.

    Returns (masks (k, 22), vads (k,), state after the last frame); k
    one-row calls that carry the state give the same rows bitwise.
    Extended-mode features must already be standardized. Pure: neither
    the model nor the passed state is mutated.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.feature_dim or not len(features):
        raise ValueError(
            f"feature block {features.shape} is not (k >= 1, feature_dim {model.feature_dim})"
        )
    fw = forward(model, features, state)
    return fw["gains_out"].out, fw["vad_out"].out[:, 0], HiddenState(*[fw[name].h[-1] for name in _GRU_SLOTS])


def _glorot(rng: np.random.Generator, rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-limit, limit, size=(rows, cols))
    # round through f32 so a fresh model survives serialization bit-exactly
    return w.astype(np.float32).astype(np.float64)


def build_model(feature_dim: int, widths=HIDDEN_WIDTHS, seed=0) -> NetworkModel:
    """Construct the six-layer wiring with Glorot-uniform weights.

    `widths` other than the standard (24, 24, 48, 96) are for small test
    instances; standard widths are asserted to hit the 215-unit budget.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    hidden = [name for name, _, _, _ in WIRING if name not in HEAD_WIDTHS]
    dims = {"features": feature_dim, **dict(zip(hidden, widths, strict=True)), **HEAD_WIDTHS}
    layers = []
    for name, kind, _, sources in WIRING:
        in_dim, out_dim = sum(dims[source] for source in sources), dims[name]
        if kind:
            w = np.vstack([_glorot(rng, out_dim, in_dim, in_dim, out_dim) for _ in range(3)])
            u = np.vstack([_glorot(rng, out_dim, out_dim, out_dim, out_dim) for _ in range(3)])
            layers.append(LayerParams(name, w, u, np.zeros(3 * out_dim)))
        else:
            layers.append(LayerParams(name, _glorot(rng, out_dim, in_dim, in_dim, out_dim), None, np.zeros(out_dim)))
    model = NetworkModel(feature_dim, *layers)
    if feature_dim == EXTENDED_DIM:
        # neutral standardization until training freezes real statistics
        model.stats = FeatureStats(np.zeros(3), np.ones(3))
    model.validate_wiring()
    if widths == HIDDEN_WIDTHS:
        assert model.total_units == TOTAL_UNITS, model.total_units
    return model


def init_weights(seed: int, feature_dim: int) -> NetworkModel:
    """Fresh standard-topology model, reproducible from the seed."""
    if feature_dim not in (REFERENCE_DIM, EXTENDED_DIM):
        raise ValueError(f"feature_dim must be {REFERENCE_DIM} or {EXTENDED_DIM}, got {feature_dim}")
    return build_model(feature_dim, HIDDEN_WIDTHS, seed)


def save_model(model: NetworkModel, path) -> None:
    stats = model.stats
    means = stats.mean if stats is not None else np.zeros(3)
    stds = stats.std if stats is not None else np.zeros(3)
    flags = 1 if model.extended else 0
    blob = [struct.pack("<4sIII", MAGIC, FORMAT_VERSION, model.feature_dim, flags)]
    blob.append(np.asarray(means, dtype="<f4").tobytes())
    blob.append(np.asarray(stds, dtype="<f4").tobytes())
    blob.append(struct.pack("<I", len(WIRING)))
    for layer, (_, kind, act, _) in zip(model.layers(), WIRING):
        name = layer.name.encode()
        blob.append(
            struct.pack("<B%dsBBII" % len(name), len(name), name, kind, act, layer.in_dim, layer.out_dim)
        )
        blob.append(np.ascontiguousarray(layer.weights, dtype="<f4"))
        if layer.recurrent is not None:
            blob.append(np.ascontiguousarray(layer.recurrent, dtype="<f4"))
        blob.append(np.ascontiguousarray(layer.bias, dtype="<f4"))
    # the arrays go to the file as they are: no per-array or whole-file copy
    with open(path, "wb") as fh:
        fh.writelines(blob)


class _Reader:
    def __init__(self, data: bytes):
        self.data = memoryview(data)  # slices are views, not copies
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise ModelFormatError("truncated model file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape) -> np.ndarray:
        n = math.prod(shape)  # Python ints: a corrupt header's dims cannot wrap around
        raw = np.frombuffer(self.take(4 * n), dtype="<f4")
        if not np.isfinite(raw).all():
            raise ModelFormatError("non-finite parameter value")
        return raw.astype(np.float64).reshape(shape)


def load_model(path) -> NetworkModel:
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    magic, version, feature_dim, flags = r.unpack("<4sIII")
    if magic != MAGIC:
        raise ModelFormatError("bad magic")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    if feature_dim not in (REFERENCE_DIM, EXTENDED_DIM):
        raise ModelFormatError(f"unexpected feature_dim {feature_dim}")
    means = r.array((3,))
    stds = r.array((3,))
    (layer_count,) = r.unpack("<I")
    if layer_count != len(WIRING):
        raise ModelFormatError(f"expected {len(WIRING)} layers, file declares {layer_count}")
    layers = []
    for slot in WIRING:
        (name_len,) = r.unpack("<B")
        try:
            name = bytes(r.take(name_len)).decode()
        except UnicodeDecodeError:
            raise ModelFormatError("layer name is not valid UTF-8") from None
        kind, act, in_dim, out_dim = r.unpack("<BBII")
        if (name, kind, act) != slot[:3]:
            raise ModelFormatError(f"layer {name!r}, kind {kind}, activation {act} is not the wiring's {slot[:3]}")
        rows = 3 * out_dim if kind else out_dim
        weights = r.array((rows, in_dim))
        recurrent = r.array((rows, out_dim)) if kind else None
        layers.append(LayerParams(name, weights, recurrent, r.array((rows,))))
    if r.pos != len(r.data):
        raise ModelFormatError("trailing bytes after last layer")
    extended = bool(flags & 1)
    if extended != (feature_dim == EXTENDED_DIM):
        raise ModelFormatError("extended flag does not match feature_dim")
    stats = FeatureStats(means, stds) if extended else None
    model = NetworkModel(feature_dim, *layers, stats=stats)
    model.validate_wiring()
    return model
