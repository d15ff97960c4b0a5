"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

A function is patched where its callers look it up: ``image`` and ``stem``
reach the coder through the ``coder.`` attribute and the coder calls its
own helpers through its module globals, so one patch on ``mfvc.coder``
covers them all; names imported with ``from ... import`` are patched on
every importing module as well.
"""

from __future__ import annotations

from spans import Tracer


def _rows(args, kwargs, result):
    return {"coder.table_rows": int(result.shape[0])}


def _encoded_symbol(args, kwargs, result):
    return {"coder.symbols": 1, "coder.bypass_bits": int(result)}


def _decoded_symbol(args, kwargs, result):
    return {"coder.symbols": 1}


def install(tracer: Tracer, mfvc) -> None:
    """Patch every traced function of the package (undo with ``tracer.unpatch``)."""
    from mfvc import coder, image, serialize, stem, tensor, trainer, video

    patches = [
        # coder
        (coder, "discretize_laplacian_rows", "coder.table", _rows),
        (coder, "pmfs_from_rows", "coder.pmf", None),
        (coder, "encode_symbol", "coder.range", _encoded_symbol),
        (coder, "decode_symbol", "coder.range", _decoded_symbol),
        (coder, "encode_plane", "coder.range", None),
        (coder, "decode_plane", "coder.range", None),
        # stem
        (stem._PositionParams, "at", "stem.fusion", None),
        (stem, "hyper_encode", "stem.hyper", None),
        (stem, "_frame_features", "stem.hyper", None),
        (stem, "temporal_prior", "stem.tpm", None),
        (stem, "encode_pframe", "stem.pframe_encode", None),
        (video, "encode_pframe", "stem.pframe_encode", None),
        (stem, "decode_pframe", "stem.pframe_decode", None),
        (video, "decode_pframe", "stem.pframe_decode", None),
        # image
        (image, "analyze", "image.analyze", None),
        (video, "analyze", "image.analyze", None),
        (trainer, "analyze", "image.analyze", None),
        (image, "synthesize", "image.synthesize", None),
        (image, "synthesis_transform", "image.synthesize", None),
        (video, "synthesize", "image.synthesize", None),
        (trainer, "synthesis_transform", "image.synthesize", None),
        (image, "i_entropy_params", "image.hyper", None),
        (image, "hyper_synthesis", "image.hyper", None),
        (image, "compress_iframe", "image.iframe_encode", None),
        (video, "compress_iframe", "image.iframe_encode", None),
        (image, "decompress_iframe", "image.iframe_decode", None),
        (video, "decompress_iframe", "image.iframe_decode", None),
        # tensor: masked_conv2d calls tensor.conv2d, so it is not wrapped itself
        (tensor, "conv2d", "tensor.conv", None),
        (tensor, "transpose_conv2d", "tensor.conv", None),
        (image, "conv2d", "tensor.conv", None),
        (image, "transpose_conv2d", "tensor.conv", None),
        (trainer, "conv2d", "tensor.conv", None),
        (tensor, "backward", "tensor.backward", None),
        (trainer, "backward", "tensor.backward", None),
        # trainer
        (trainer, "loss_i", "trainer.ae_loss", None),
        (trainer, "loss_p", "trainer.stem_loss", None),
        (trainer, "adam_step", "trainer.adam", None),
        (trainer, "train_image_model", "trainer.loop", None),
        (trainer, "train_stem", "trainer.loop", None),
        # video; callers of the package reach these through its namespace
        (mfvc, "compress_video", "video.self", None),
        (mfvc, "decompress_video", "video.self", None),
        (video, "compress_video", "video.self", None),
        (video, "decompress_video", "video.self", None),
        (video.VideoBitstream, "to_bytes", "video.container", None),
        (video.VideoBitstream, "from_bytes", "video.container", None),
        # serialize
        (serialize, "load_named_tensors", "serialize.load", None),
    ]
    for owner, attr, name, count in patches:
        tracer.patch(owner, attr, name, count)


# (metric, span whose self time per unit it reports)
TIMES = [
    ("coder.table_ms", "coder.table"),
    ("coder.pmf_ms", "coder.pmf"),
    ("coder.range_ms", "coder.range"),
    ("stem.fusion_ms", "stem.fusion"),
    ("stem.hyper_ms", "stem.hyper"),
    ("stem.tpm_ms", "stem.tpm"),
    ("stem.pframe_encode_ms", "stem.pframe_encode"),
    ("stem.pframe_decode_ms", "stem.pframe_decode"),
    ("image.analyze_ms", "image.analyze"),
    ("image.synthesize_ms", "image.synthesize"),
    ("image.hyper_ms", "image.hyper"),
    ("image.iframe_encode_ms", "image.iframe_encode"),
    ("image.iframe_decode_ms", "image.iframe_decode"),
    ("tensor.conv_ms", "tensor.conv"),
    ("tensor.backward_ms", "tensor.backward"),
    ("trainer.ae_loss_ms", "trainer.ae_loss"),
    ("trainer.stem_loss_ms", "trainer.stem_loss"),
    ("trainer.adam_ms", "trainer.adam"),
    ("trainer.loop_ms", "trainer.loop"),
    ("video.self_ms", "video.self"),
    ("video.container_ms", "video.container"),
    ("bench.self_ms", None),  # the roots' own self time
]
COUNTS = [
    ("coder.table_rows", "coder.table_rows"),
    ("coder.symbols", "coder.symbols"),
    ("coder.bypass_bits", "coder.bypass_bits"),
]
CALLS = [
    ("stem.fusion_calls", "stem.fusion"),
    ("tensor.conv_calls", "tensor.conv"),
]
ROOTS = ("bench.encode", "bench.decode", "bench.train_ae", "bench.train_stem")

UNITS = {
    **{metric: "ms" for metric, _ in TIMES},
    **{metric: "count" for metric, _ in COUNTS + CALLS},
    "coder.rows_per_symbol": "1",
    "stem.rate_gap_of_bound": "1",
    "serialize.load_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def per_unit(tracer: Tracer, units: int) -> dict[str, float]:
    """Layer self times (ms), counters and call counts per unit of work,
    from the totals gathered since the last ``reset_totals``."""
    out: dict[str, float] = {}
    for metric, span in TIMES:
        if span is None:
            seconds = sum(tracer.self_s.get(r, 0.0) for r in ROOTS)
        else:
            seconds = tracer.self_s.get(span, 0.0)
        out[metric] = 1e3 * seconds / units
    for metric, counter in COUNTS:
        out[metric] = tracer.counts.get(counter, 0) / units
    for metric, span in CALLS:
        out[metric] = tracer.calls.get(span, 0) / units
    symbols = tracer.counts.get("coder.symbols", 0)
    out["coder.rows_per_symbol"] = tracer.counts.get("coder.table_rows", 0) / symbols if symbols else 0.0
    return out
