"""Golden-stream pin: fixed-seed untrained weights on a fixed sequence must
code to exactly these bytes.

The sequence covers I-frames and P-frames (GOP 3 over a translating and a
zooming clip) and every branch ablation of the entropy model. A refactor
must leave these hashes unchanged; an intentional format change bumps the
container version, updates the pins here and says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from mfvc.image import init_autoencoder
from mfvc.stem import StemFlags, init_stem
from mfvc.video import GopConfig, compress_video, synth_sequence

GOLDEN = {
    "all": "506bc61d7031c4893f21a29a7c1b1e6efb8ea06d9cc97340889fef1fa1845301",
    "no_spm": "d883c12dbde444ea325a6157dd05362e7f5aa0830c25fe0d477bc7ebce570dad",
    "no_tpm": "8324cadab959727dd32da060069e206a3fde4087ccc7cc39c8d0b43dc3be6414",
    "no_residual": "cbb53adf1337fb9a0a6455bbd6fa070d199bac033ed6f8dd84d5c08c27f01f19",
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
