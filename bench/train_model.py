"""Train the benchmark's model with the acceptance suite's recipe.

    python3 bench/train_model.py

Writes ``bench/model/ae.mfvcw`` and ``bench/model/stem.mfvcw`` and prints
their SHA-256. The recipe: C=16, f=4, lambda in {16, 64, 256}; the
auto-encoder trains 3,200 iterations on 48x48 translating and zooming
frames (init seed 1, sampling seed 1); the entropy model, all branches on,
trains 5,000 iterations on translating clips at shifts 2, 4 and 0
(seed 2). Both stages use batch 4 and 32x32 patches. The committed files
are the reference: every benchmark run loads them, so every run measures
the same model.
"""

from __future__ import annotations

import hashlib
import time

import _bootstrap

LAMBDAS = (16.0, 64.0, 256.0)


def main() -> None:
    _bootstrap.cap_blas_threads()
    mfvc = _bootstrap.import_package()
    import numpy as np
    from mfvc.video import synth_clips

    t0 = time.perf_counter()
    parts = []
    for s in range(6):
        parts.append(mfvc.synth_sequence("translate", 4, 48, 48, seed=100 + s, shift=2))
        parts.append(mfvc.synth_sequence("zoom", 4, 48, 48, seed=200 + s))
    ae_cfg = mfvc.TrainConfig(
        lambda_set=LAMBDAS, batch_size=4, patch_h=32, patch_w=32,
        lr_values=(1e-3, 5e-4, 2e-4), lr_boundaries=(1500, 2500), total_iters=3200, seed=1,
    )
    ae = mfvc.init_autoencoder(latent_channels=16, downsample_factor=4, lambda_set=LAMBDAS, seed=1)
    mfvc.train_image_model(np.concatenate(parts), ae_cfg, weights=ae)
    print(f"auto-encoder trained in {time.perf_counter() - t0:.0f} s", flush=True)

    t1 = time.perf_counter()
    clips = synth_clips("translate", 8, 7, 48, 48, seed=300, shift=2)
    clips += synth_clips("translate", 4, 7, 48, 48, seed=400, shift=4)
    clips += synth_clips("translate", 3, 7, 48, 48, seed=500, shift=0)
    stem_cfg = mfvc.TrainConfig(
        lambda_set=LAMBDAS, batch_size=4, patch_h=32, patch_w=32,
        lr_values=(1e-3, 5e-4, 2e-4, 1e-4), lr_boundaries=(1500, 3000, 4200), total_iters=5000, seed=2,
    )
    stem = mfvc.train_stem(clips, ae, stem_cfg, flags=mfvc.StemFlags(True, True, True))
    print(f"entropy model trained in {time.perf_counter() - t1:.0f} s", flush=True)

    _bootstrap.MODEL_DIR.mkdir(exist_ok=True)
    for name, weights in (("ae.mfvcw", ae), ("stem.mfvcw", stem)):
        path = _bootstrap.MODEL_DIR / name
        weights.save(path)
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(_bootstrap.REPO_ROOT)}")


if __name__ == "__main__":
    main()
