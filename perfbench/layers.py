"""Where the traced run wraps rnx, and how spans become per-layer metrics.

Each function is wrapped at the attribute its caller resolves: `pipeline`
imports `network_forward`, `comb_filter`, `load_audio` and `store_audio`
by name, `dataset` imports `load_audio` by name, and every other call
goes through a module or class attribute.

Self times are normalised per unit of work: per hop (`process_hop` calls),
per analysed frame (`FeatureExtractor.process` calls, which include the
mixer's frames), per mixed frame (`compute_irm` calls), per training step
(`backward_tbptt` calls) or per call of the function itself.
"""

from __future__ import annotations

from rnx import training

PATCHES = [
    ("rnx.pipeline:process_hop", "pipeline.process_hop"),
    ("rnx.pipeline:network_forward", "neural.network_forward"),
    ("rnx.pipeline:comb_filter", "pitch.comb_filter"),
    ("rnx.pipeline:load_audio", "audio_io.load_audio"),
    ("rnx.pipeline:store_audio", "audio_io.store_audio"),
    ("rnx.features:FeatureExtractor.process", "features.FeatureExtractor.process"),
    ("rnx.pitch:estimate_pitch", "pitch.estimate_pitch"),
    ("rnx.dsp:analyze_frame", "dsp.analyze_frame"),
    ("rnx.dsp:synthesize_frame", "dsp.synthesize_frame"),
    ("rnx.dsp:dct_ii", "dsp.dct_ii"),
    ("rnx.bands:band_energies", "bands.band_energies"),
    ("rnx.bands:band_correlation", "bands.band_correlation"),
    ("rnx.bands:interpolate_gains", "bands.interpolate_gains"),
    ("rnx.bands:apply_gains", "bands.apply_gains"),
    ("rnx.bands:compute_irm", "bands.compute_irm"),
    ("rnx.dataset:load_audio", "audio_io.load_audio"),
    ("rnx.dataset:mix_and_label", "dataset.mix_and_label"),
    ("rnx.dataset:write_feature_file", "dataset.write_feature_file"),
    ("rnx.dataset:load_feature_file", "dataset.load_feature_file"),
    ("rnx.training:train", "training.train"),
    ("rnx.training:backward_tbptt", "training.backward_tbptt"),
    ("rnx.training:clip_gradients", "training.clip_gradients"),
    ("rnx.training:adam_update", "training.adam_update"),
    ("rnx.evaluate:score_pair", "evaluate.score_pair"),
]

# (metric, span, unit of work it is divided by, reported unit)
SELF_TIMES = [
    ("pitch.estimate_pitch.self_us", "pitch.estimate_pitch", "frame", "us"),
    ("pitch.comb_filter.self_us", "pitch.comb_filter", "hop", "us"),
    ("features.FeatureExtractor.process.self_us", "features.FeatureExtractor.process", "frame", "us"),
    ("dsp.analyze_frame.self_us", "dsp.analyze_frame", "frame", "us"),
    ("dsp.dct_ii.self_us", "dsp.dct_ii", "frame", "us"),
    ("dsp.synthesize_frame.self_us", "dsp.synthesize_frame", "hop", "us"),
    ("bands.band_energies.self_us", "bands.band_energies", "frame", "us"),
    ("bands.band_correlation.self_us", "bands.band_correlation", "frame", "us"),
    ("bands.interpolate_gains.self_us", "bands.interpolate_gains", "hop", "us"),
    ("bands.apply_gains.self_us", "bands.apply_gains", "hop", "us"),
    ("bands.compute_irm.self_us", "bands.compute_irm", "mixframe", "us"),
    ("neural.network_forward.self_us", "neural.network_forward", "hop", "us"),
    ("pipeline.process_hop.self_us", "pipeline.process_hop", "hop", "us"),
    ("dataset.mix_and_label.self_us", "dataset.mix_and_label", "mixframe", "us"),
    ("dataset.write_feature_file.self_ms", "dataset.write_feature_file", "call", "ms"),
    ("dataset.load_feature_file.self_ms", "dataset.load_feature_file", "call", "ms"),
    ("audio_io.load_audio.self_ms", "audio_io.load_audio", "call", "ms"),
    ("audio_io.store_audio.self_ms", "audio_io.store_audio", "call", "ms"),
    ("evaluate.score_pair.self_ms", "evaluate.score_pair", "call", "ms"),
    ("training.train.self_ms", "training.train", "step", "ms"),
    ("training.backward_tbptt.self_ms", "training.backward_tbptt", "step", "ms"),
    ("training.sequence_loss.self_ms", "training.sequence_loss", "step", "ms"),
    ("training.clip_gradients.self_ms", "training.clip_gradients", "step", "ms"),
    ("training.adam_update.self_ms", "training.adam_update", "step", "ms"),
]

UNIT_SPANS = {
    "hop": "pipeline.process_hop",
    "frame": "features.FeatureExtractor.process",
    "mixframe": "bands.compute_irm",
    "step": "training.backward_tbptt",
}

# (metric, numerator count, denominator count, unit, spans they come from)
RATIOS = [
    ("pitch.silent_frac", "pitch.silent", "pitch.estimate_pitch.calls", "ratio",
     ("pitch.estimate_pitch",)),
    ("dsp.analyze_frame.calls_per_hop", "dsp.analyze_frame.calls",
     "features.FeatureExtractor.process.calls", "count",
     ("dsp.analyze_frame", "features.FeatureExtractor.process")),
    ("dataset.sentinel_frac", "dataset.sentinel_values", "dataset.gain_values", "ratio",
     ("dataset.mix_and_label",)),
    ("dataset.vad_pos_frac", "dataset.vad_positive", "dataset.vad_rows", "ratio",
     ("dataset.mix_and_label",)),
    ("training.clip_frac", "training.clipped", "training.clip_gradients.calls", "ratio",
     ("training.clip_gradients",)),
]

COUNTS = [
    "pipeline.process_hop.calls",
    "features.FeatureExtractor.process.calls",
    "bands.compute_irm.calls",
    "training.backward_tbptt.calls",
]


def _silent(tracer, result, args, kwargs):
    tracer.counts["pitch.silent"] += int(result[1] == 0.0)


def _labels(tracer, result, args, kwargs):
    _, _, gains, vads = result
    tracer.counts["dataset.gain_values"] += int(gains.size)
    tracer.counts["dataset.sentinel_values"] += int((gains == -1.0).sum())
    tracer.counts["dataset.vad_rows"] += int(vads.size)
    tracer.counts["dataset.vad_positive"] += int((vads > 0.5).sum())


def _clipped(tracer, result, args, kwargs):
    cap = args[1] if len(args) > 1 else kwargs.get("max_norm")
    tracer.counts["training.clipped"] += int(cap is not None and result > cap > 0.0)


def _replay_forward(tracer, result, args, kwargs):
    """Replay the step's batch through the public forward-only loss, as its
    own span after the step, to split forward from backward time."""
    call = dict(zip(("model", "feats", "gains", "vads"), args))
    call.update(kwargs)
    try:
        forward = training.sequence_loss
    except AttributeError:
        if "training.sequence_loss" not in tracer.absent:
            tracer.absent.append("training.sequence_loss")
        return
    with tracer.span("training.sequence_loss"):
        forward(
            call["model"], call["feats"], call["gains"], call["vads"],
            gamma=call.get("gamma", 0.5), vad_weight=call.get("vad_weight", 0.5),
        )


HOOKS = {
    "pitch.estimate_pitch": _silent,
    "dataset.mix_and_label": _labels,
    "training.clip_gradients": _clipped,
    "training.backward_tbptt": _replay_forward,
}


def install(tracer):
    for target, name in PATCHES:
        tracer.patch(target, name, HOOKS.get(name))


def per_layer_metrics(tracer, overhead_frac):
    """{metric: (value or None when absent, unit)} from a finished trace."""
    self_ns = tracer.self_ns()
    counts = tracer.counts
    absent = set(tracer.absent)
    out = {}
    for metric, span, per, unit in SELF_TIMES:
        denom_span = span if per == "call" else UNIT_SPANS[per]
        if span in absent or denom_span in absent:
            out[metric] = (None, unit)
            continue
        calls = counts[denom_span + ".calls"]
        scale = 1e3 if unit == "us" else 1e6
        out[metric] = (self_ns.get(span, 0) / scale / calls if calls else 0.0, unit)
    for metric, num, den, unit, sources in RATIOS:
        if absent.intersection(sources):
            out[metric] = (None, unit)
            continue
        out[metric] = (counts[num] / counts[den] if counts[den] else 0.0, unit)
    for name in COUNTS:
        out[name] = (None if name.rsplit(".", 1)[0] in absent else counts[name], "count")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
