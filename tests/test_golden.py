"""Golden pins: fixed-seed untrained weights on a fixed sequence must code
to exactly these bytes and decode to exactly these pictures, a few
fixed-seed training iterations must give exactly these weight files, the
coder's table grid must hold exactly these frequencies, and the coder must
code a fixed plane to exactly these bytes.

The sequence covers I-frames and P-frames (GOP 3 over a translating and a
zooming clip) and every branch ablation of the entropy model. The encoder
never runs the synthesis transform, so the stream pins cannot see it; the
decoded-picture pin does, on the uint8 pictures and on the float32
synthesis output, and it holds at one and at two BLAS threads. The
entropy model's branches change the bytes, not the latents, so every
stream decodes to the same pictures. A refactor
must leave these hashes unchanged; an intentional format change bumps the
container version, updates the pins here and says so in CHANGES.md. The
training pins cover both stages under both distortion measures, with three
rates and with one; they hold at one and at two BLAS threads. The table
grid is computed with libm ``exp``/``expm1`` and is part of the bitstream
format, so a libm that rounds differently shows up here before it breaks a
stream. The coder pin covers the entropy coder apart from the models, so a
change to the coded format shows there first. The benchmark-model pins
cover the trained weights in ``bench/model`` on the benchmark's seed-1
``gop64`` and ``intra256`` clips, where the untrained models above leave
trained kernels and larger planes unseen; they too hold at one and at two
BLAS threads.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from mfvc import VideoBitstream
from mfvc.coder import LOG_SCALE_MAX, LOG_SCALE_MIN, encode_plane, grid_index, table_grid
from mfvc.image import init_autoencoder, load_autoencoder, synthesize
from mfvc.stem import StemFlags, init_stem, load_stem
from mfvc.trainer import TrainConfig, train_image_model, train_stem
from mfvc.video import GopConfig, compress_video, decompress_video, synth_clips, synth_sequence

GOLDEN = {
    "all": "c3e61c9ab348ccd0fee0a90064280d4b97014a553211aae66929179bcbca1b53",
    "no_spm": "10444de1b09e097326ea01153cb9b30eef87c12cda2d5f5d56e60fa3505a74e3",
    "no_tpm": "322adff41bf3d183a616f4e58bbe7e288b15b02ee2e599cbea2908f6ea6b2533",
    "no_residual": "b0213440b7c7004995beab199929f099b7185cd5306b457be067f8bedd89e8d0",
}

FLAGS = {
    "all": StemFlags(),
    "no_spm": StemFlags(use_spm=False),
    "no_tpm": StemFlags(use_tpm=False),
    "no_residual": StemFlags(use_residual=False),
}


@pytest.fixture(scope="module")
def setup():
    ae = init_autoencoder(8, 4, (16, 64, 256), seed=0)
    stem = init_stem(8, seed=0)
    frames = np.concatenate([
        synth_sequence("translate", 3, 32, 32, seed=1, shift=2),
        synth_sequence("zoom", 3, 32, 32, seed=2),
    ])
    return ae, stem, frames


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_stream_bytes_pinned(setup, name):
    ae, stem, frames = setup
    stream = compress_video(frames, ae, stem, GopConfig(3, ae.rate(1), FLAGS[name]))
    assert hashlib.sha256(stream.to_bytes()).hexdigest() == GOLDEN[name]


# sha256 of the decoded uint8 pictures and of the float32 synthesis output
# they are rounded from; rounding to uint8 hides last-bit changes.
DECODED = (
    "c14926bf4a4d3f19a0831e89f5230ce83da82863b2b77017f5d0eca78d6db7e8",
    "9ebc1fd535526c830ec4e58f2ac04b8ce8a36f09af6a56b660b32458a1079d75",
)


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_decoded_pictures_pinned(setup, name):
    ae, stem, frames = setup
    rate = ae.rate(1)
    stream = compress_video(frames, ae, stem, GopConfig(3, rate, FLAGS[name]))
    decoded, latents = decompress_video(stream, ae, stem, return_latents=True)
    assert decoded.dtype == np.uint8 and decoded.shape == frames.shape
    synthesized = np.stack([synthesize(latent, rate, ae).data[0] for latent in latents])
    assert synthesized.dtype == np.float32
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (decoded, synthesized))
    assert got == DECODED


BENCH_MODEL = Path(__file__).resolve().parents[1] / "bench" / "model"

BENCH_CLIPS = {
    # workload: (clips as (kind, frames, shift), side, GOP, rate index) as bench/workloads.py has them
    "gop64": ((("translate", 10, 2), ("translate", 10, 0), ("zoom", 10, 0)), 64, 10, 1),
    "intra256": ((("translate", 1, 0), ("zoom", 1, 0)), 256, 1, 2),
}

BENCH_PINNED = {
    # workload: sha256 of the stream, of the decoded uint8 pictures and of the float32 synthesis output
    "gop64": (
        "34e5dfd9d0ece90e69c41e96b7e8c986f5286c3ebe277c535ba238dcebebf94f",
        "b9e858c7c674101c13a47bc6bda6d4d45aa7b2577e79cd66f43c58dfc31caa40",
        "f9ee020493d228204363d6a911565eec90dfc98821994cd4a9e1c1d1dca3988e",
    ),
    "intra256": (
        "5cda43e89af620f2241bcccdc80966ecfb5d7bc91e3345b309f35cd30a636755",
        "36b0cbc8d434d46adf8c6d7822bbe20b9283b90ee7e2e26a0934e65fffa75fe2",
        "441e1c77e8db01a63ea70095d9344014d00f30263a01dd8aaf1a620fc524fa19",
    ),
}


@pytest.fixture(scope="module")
def bench_model():
    return load_autoencoder(BENCH_MODEL / "ae.mfvcw"), load_stem(BENCH_MODEL / "stem.mfvcw")


@pytest.mark.parametrize("workload", sorted(BENCH_CLIPS))
def test_benchmark_model_streams_pinned(bench_model, workload):
    # The clips bench/workloads.py's make_inputs builds for seed 1.
    ae, stem = bench_model
    clips, side, gop, rate_index = BENCH_CLIPS[workload]
    frames = np.concatenate([
        synth_sequence(kind, n, side, side, seed=1000 + i, shift=shift) for i, (kind, n, shift) in enumerate(clips)
    ])
    rate = ae.rate(rate_index)
    data = compress_video(frames, ae, stem, GopConfig(gop, rate, StemFlags())).to_bytes()
    decoded, latents = decompress_video(VideoBitstream.from_bytes(data), ae, stem, return_latents=True)
    synthesized = np.stack([synthesize(latent, rate, ae).data[0] for latent in latents])
    got = tuple(hashlib.sha256(b).hexdigest() for b in (data, decoded.tobytes(), synthesized.tobytes()))
    assert got == BENCH_PINNED[workload]


TRAINED = {
    # distortion: (patch side, auto-encoder sha256, entropy-model sha256)
    "mse": (
        32,
        "386ce07b558f3b5238fef4034e80bdb548226eeb1e9a75667be1205d0f86de36",
        "723842604914f2bca622111b783c57b34c6ed9b780783ec260527eb6cba2cade",
    ),
    "ms-ssim": (
        48,
        "5660bebcd14da0d8d570bed5b8da7763e66092dd68bcecdd1754d28337e2159a",
        "f8653efcf06f0b73c64f0603619ab9e4614513d941f36449c4b5886b77fd0511",
    ),
}

# One lambda: every batch is a single rate group, whose step is the same
# computation whether the trainer passes a batch whole or rate by rate.
ONE_LAMBDA = {
    "mse": (
        32,
        "d6e2068d3c1ea8d26ff5f9467858e5427cbddc42bb135562a4df21a3f7e38dc0",
        "468d6cba8eb9a37f1809d0da52c0e7ee5c7dc170dd21968e28751c1658de89af",
    ),
    "ms-ssim": (
        48,
        "22fbd16a72203fe0188a83e872e97ab932819aeedf6dbb32437f7dc6c8a64f3f",
        "836e01706c61fcf4ea88e6fe0aed8e52ede0a98cdfb856aed92df86622f5816d",
    ),
}


def _trained_hashes(lambdas, distortion, patch):
    cfg = TrainConfig(lambda_set=lambdas, batch_size=2, patch_h=patch, patch_w=patch, lr_values=(1e-3,),
                      lr_boundaries=(), total_iters=6, distortion=distortion, seed=3)
    frames = np.concatenate([
        synth_sequence("translate", 3, 48, 48, seed=1, shift=2),
        synth_sequence("zoom", 3, 48, 48, seed=2),
    ])
    ae = train_image_model(frames, cfg, weights=init_autoencoder(8, 4, lambdas, seed=3))
    stem = train_stem(synth_clips("translate", 2, 3, 48, 48, seed=4), ae, cfg, stem_weights=init_stem(8, seed=3))
    return tuple(hashlib.sha256(w.to_bytes()).hexdigest() for w in (ae, stem))


@pytest.mark.parametrize("distortion", sorted(TRAINED))
def test_trained_weights_pinned(distortion):
    patch, *hashes = TRAINED[distortion]
    assert _trained_hashes((16.0, 64.0, 256.0), distortion, patch) == tuple(hashes)


@pytest.mark.parametrize("distortion", sorted(ONE_LAMBDA))
def test_one_lambda_training_pinned(distortion):
    patch, *hashes = ONE_LAMBDA[distortion]
    assert _trained_hashes((64.0,), distortion, patch) == tuple(hashes)


GRID_SHA256 = "6c917f6a0e66839218e4f32cf87a7099418f90c9a2f760d2ddb1a8ae2cc6bedf"


def test_table_grid_pinned():
    grid = np.asarray(table_grid(), dtype="<i8")
    assert hashlib.sha256(grid.tobytes()).hexdigest() == GRID_SHA256


CODED = {
    # log-scale of the grid row: sha256 of the coded plane
    LOG_SCALE_MIN: "ed96fa238ff78c9bb5aab2c6812d6507a396a5ccd737b7823243ab41e7c386e1",
    LOG_SCALE_MAX: "96e910e8e2b36018af044c5cf2d05df46c4c5a5dfed9ef3da14d277b00625b45",
}


@pytest.mark.parametrize("log_scale", sorted(CODED), ids=["sharpest", "widest"])
def test_coded_plane_pinned(log_scale):
    # Every in-support value step 3 around both ends, and escapes past each
    # end: the first ones out, larger ones and the int32 limits.
    plane = np.concatenate([np.arange(-140, 141, 3), [-128, 129, -1000, 1000, -(2**31), 2**31 - 1, 0, 1, -1]])
    stream = encode_plane(plane, *grid_index(0.0, log_scale))
    assert hashlib.sha256(stream.data).hexdigest() == CODED[log_scale]
