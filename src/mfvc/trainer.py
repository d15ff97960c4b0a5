"""Two-stage training: the rate-conditioned auto-encoder learns on single
frames, then the spatiotemporal entropy model learns on frame pairs with
the auto-encoder frozen.

Both stages use Adam with a piecewise-constant learning-rate schedule and
the additive-uniform-noise quantization surrogate, and each iteration is
one forward and one backward pass over its batch. An auto-encoder batch
mixes rates, one per frame: the conditional scale/shift tables condition
each frame on its own rate, and the distortion is weighted per rate group.
Data sampling may run concurrently with optimization, but parameter
updates are serialized per step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import image as image_mod
from .image import AutoencoderWeights, CodecWeights, RateIndex, analyze, synthesis_transform
from .metrics import MSSSIM_WEIGHTS, gaussian_window
from .stem import StemFlags, StemWeights, init_stem, p_frame_rate
from .tensor import (
    ConfigError,
    ConvLayer,
    Tensor,
    add_row_noise,
    affine,
    avg_pool2,
    backward,
    clamp,
    conv2d,
    div,
    laplace_nll_bits,
    mean_all,
    mul,
    powp,
    round_half_away,
    sub,
    sum_all,
    take_rows,
)
from .video import frames_to_float

# Full-scale schedule; desk-scale runs shrink the boundaries proportionally.
FULL_SCALE_LR_VALUES = (1e-4, 5e-5, 1e-5, 5e-6, 1e-6)
FULL_SCALE_LR_BOUNDARIES = (1_600_000, 2_100_000, 2_300_000, 2_400_000, 2_500_000)


@dataclass
class TrainConfig:
    lambda_set: tuple[float, ...] = image_mod.DEFAULT_LAMBDA_SET
    batch_size: int = 4
    patch_h: int = 64
    patch_w: int = 64
    lr_values: tuple[float, ...] = (1e-3, 5e-4, 1e-4)
    lr_boundaries: tuple[int, ...] = (2000, 4000)
    total_iters: int = 5000
    distortion: str = "mse"
    seed: int = 0

    def __post_init__(self):
        if self.distortion not in ("mse", "ms-ssim"):
            raise ConfigError(f"distortion must be 'mse' or 'ms-ssim', got '{self.distortion}'")
        if min(self.batch_size, self.patch_h, self.patch_w) < 1:
            raise ConfigError("batch_size, patch_h and patch_w must be positive")
        if self.total_iters < 0:
            raise ConfigError(f"total_iters must be non-negative, got {self.total_iters}")
        if not self.lr_values or not all(0.0 < v < float("inf") for v in self.lr_values):
            raise ConfigError(f"lr_values must be finite positive learning rates, got {self.lr_values}")
        if len(self.lr_boundaries) not in (len(self.lr_values), len(self.lr_values) - 1):
            raise ConfigError("lr_boundaries must have the same length as lr_values, or one fewer")
        if any(b >= a for a, b in zip(self.lr_boundaries[1:], self.lr_boundaries)):
            raise ConfigError("lr_boundaries must be strictly increasing")
        if not self.lambda_set or any(v <= 0 for v in self.lambda_set):
            raise ConfigError("lambda_set must contain positive values")


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Learning rate in effect at an iteration: the i-th value where i
    counts boundaries <= iteration, capped at the last value."""
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    i = sum(1 for b in cfg.lr_boundaries if b <= iteration)
    return float(cfg.lr_values[min(i, len(cfg.lr_values) - 1)])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    skipped: int = 0


def init_optimizer(params: Sequence[Tensor]) -> OptimizerState:
    return OptimizerState(
        m=[np.zeros(p.shape, dtype=np.float32) for p in params],
        v=[np.zeros(p.shape, dtype=np.float32) for p in params],
    )


def adam_step(params: Sequence[Tensor], grads: Sequence[Optional[np.ndarray]],
              state: OptimizerState, lr: float) -> int:
    """Bias-corrected Adam update in place; returns how many tensors were
    skipped this step because their gradient was absent or non-finite.
    The moment arrays of ``state`` change in place; each parameter gets a
    new ``data`` array."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    skipped = 0
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            continue
        if not np.isfinite(g).all():
            skipped += 1
            continue
        g = g.astype(np.float32, copy=False)
        m, v = state.m[i], state.v[i]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        p.data = p.data - (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)
    state.skipped += skipped
    return skipped


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# Differentiable distortion terms
# ---------------------------------------------------------------------------


def mse_distortion(a: Tensor, b: Tensor) -> Tensor:
    d = sub(a, b)
    return mean_all(mul(d, d))


def _blur(channels: int) -> ConvLayer:
    """Per-channel convolution with the metric's Gaussian window."""
    window = gaussian_window()
    kernel = np.zeros((channels, channels) + window.shape, dtype=np.float32)
    kernel[range(channels), range(channels)] = window
    return ConvLayer(kernel=Tensor(kernel), bias=Tensor(np.zeros((1, channels, 1, 1))), stride=1)


def msssim_index(a: Tensor, b: Tensor, scales: int = 3) -> Tensor:
    """Differentiable multiscale structural similarity for [0, 1] frames.

    Contrast/structure terms at every scale, luminance at the coarsest
    only; with fewer than five scales the leading standard weights are
    renormalized. Border handling uses the network's zero padding, which
    is fine for a training objective (the evaluation metric lives in
    :mod:`mfvc.metrics`).
    """
    if a.shape != b.shape:
        raise ConfigError(f"frames differ in shape: {a.shape} vs {b.shape}")
    if min(a.shape[2], a.shape[3]) < 2 ** (scales - 1) * 11:
        raise ConfigError(f"frames too small for {scales} scales; need at least {2 ** (scales - 1) * 11} pixels")
    weights = np.asarray(MSSSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    c1 = 0.01**2
    c2 = 0.03**2
    blur = _blur(a.shape[1])

    total: Optional[Tensor] = None
    for s in range(scales):
        mu_a = conv2d(a, blur)
        mu_b = conv2d(b, blur)
        mu_aa = mul(mu_a, mu_a)
        mu_bb = mul(mu_b, mu_b)
        mu_ab = mul(mu_a, mu_b)
        var_a = sub(conv2d(mul(a, a), blur), mu_aa)
        var_b = sub(conv2d(mul(b, b), blur), mu_bb)
        cov = sub(conv2d(mul(a, b), blur), mu_ab)
        cs_map = div(affine(cov, 2.0, c2), affine(var_a + var_b, 1.0, c2))
        if s == scales - 1:
            lum = div(affine(mu_ab, 2.0, c1), affine(mu_aa + mu_bb, 1.0, c1))
            term = mean_all(mul(lum, cs_map))
        else:
            term = mean_all(cs_map)
        term = powp(clamp(term, 1e-4, 1.0), float(weights[s]))
        total = term if total is None else mul(total, term)
        if s != scales - 1:
            a = avg_pool2(a)
            b = avg_pool2(b)
    return total


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss_i(frames: np.ndarray, rates: Sequence[RateIndex], weights: AutoencoderWeights,
           distortion: str = "mse", noise_seed: int = 0, msssim_scales: int = 3):
    """Single-frame training objective over a batch, frame k at ``rates[k]``:
    rate plus lambda-weighted distortion, in one pass.

    Returns (loss, rate_bpp, distortion) as scalar graph tensors. Rate is
    the noisy-latent cross entropy (latent plus hyper) of the whole batch in
    bits per pixel. Each rate present forms a group of the frames at it, and
    its distortion D is MSE over the group's [0, 1] pixels or one minus the
    multiscale similarity index pooled over the group. With ``share`` the
    group's fraction of the batch, the loss adds share * lambda * D per
    group and the returned distortion is the sum of share * D.

    A group's latent noise is drawn from ``noise_seed`` plus its rate index
    and its hyper-latent noise from one more, so the one-pass loss is the
    share-weighted sum of the losses of each group passed on its own.
    """
    frames = np.asarray(frames)
    if frames.ndim == 3:
        frames = frames[None]
    dtype = weights.analysis[0].kernel.dtype
    x = Tensor(frames.astype(dtype))
    b, _, h, w = x.shape

    y = analyze(x, rates, weights)
    seeds = [noise_seed + rate.index for rate in rates]
    y_tilde = add_row_noise(y, seeds)
    z_tilde = weights.hyper_latent(y_tilde, [seed + 1 for seed in seeds])
    mu, log_scale = image_mod.hyper_synthesis(z_tilde, weights, y.shape[2], y.shape[3])
    y_bits = sum_all(laplace_nll_bits(y_tilde, mu, log_scale))
    z_bits = sum_all(weights.z_prior_nll(z_tilde))
    rate_bpp = affine(y_bits + z_bits, 1.0 / (b * h * w), 0.0)

    recon = synthesis_transform(y_tilde, rates, weights)
    loss, dist = rate_bpp, None
    for rate in sorted(set(rates), key=lambda r: (r.index, r.lambda_value)):
        rows = [k for k, r in enumerate(rates) if r == rate]
        share = len(rows) / b
        xg, rg = take_rows(x, rows), take_rows(recon, rows)
        if distortion == "mse":
            d = mse_distortion(xg, rg)
        else:
            d = affine(msssim_index(xg, rg, msssim_scales), -1.0, 1.0)
        loss = loss + affine(d, share * rate.lambda_value, 0.0)
        d = affine(d, share, 0.0)
        dist = d if dist is None else dist + d
    return loss, rate_bpp, dist


def loss_p(latent: np.ndarray, prev_latent: np.ndarray, flags: StemFlags,
           weights: StemWeights, training: bool = True, noise_seed: int = 0) -> Tensor:
    """P-frame objective: total (latent + hyper) bits per latent symbol.

    There is no distortion term; reconstruction quality is fixed by the
    frozen auto-encoder.
    """
    y_bits, z_bits = p_frame_rate(latent, prev_latent, flags, weights,
                                  training=training, noise_seed=noise_seed)
    count = int(np.prod(np.asarray(latent).shape))
    return affine(y_bits + z_bits, 1.0 / count, 0.0)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


class _TrainLog:
    """One run's CSV log: opening it truncates the file to the header."""

    def __init__(self, path):
        self.path = path
        if path is not None:
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerow(["iteration", "lr", "loss", "R", "D"])

    def row(self, iteration: int, lr: float, loss: float, rate: float, dist: float):
        if self.path is None:
            return
        with open(self.path, "a", newline="") as fh:
            csv.writer(fh).writerow([iteration, f"{lr:.8g}", f"{loss:.8g}", f"{rate:.8g}", f"{dist:.8g}"])


def _optimize(weights: CodecWeights, cfg: TrainConfig, log_path, step) -> CodecWeights:
    """The loop both stages share: Adam on every parameter of ``weights``
    under the learning-rate schedule of ``cfg``, one log row per iteration.

    ``step(rng, it)`` samples iteration ``it``'s batch from the seeded
    ``rng``, back-propagates its loss and returns (loss, R, D) for the log.
    """
    weights.set_trainable(True)
    params = weights.parameters()
    state = init_optimizer(params)
    rng = np.random.default_rng(cfg.seed)
    log = _TrainLog(log_path)
    for it in range(cfg.total_iters):
        lr = lr_at(it, cfg)
        zero_grads(params)
        loss, rate, dist = step(rng, it)
        adam_step(params, [p.grad for p in params], state, lr)
        log.row(it, lr, loss, rate, dist)
    weights.set_trainable(False)
    return weights


def _random_crop(rng, frame_hw, patch_h, patch_w):
    h, w = frame_hw
    if h < patch_h or w < patch_w:
        raise ConfigError(f"frames of {h}x{w} are smaller than the {patch_h}x{patch_w} patch")
    r = int(rng.integers(0, h - patch_h + 1))
    c = int(rng.integers(0, w - patch_w + 1))
    return r, c


def train_image_model(dataset, cfg: TrainConfig, weights: Optional[AutoencoderWeights] = None,
                      log_path=None) -> AutoencoderWeights:
    """Optimize the auto-encoder on random crops of ``dataset`` ((N, 3, H, W)
    frames or one (3, H, W) frame) with a random rate index per sample;
    returns the trained weights.

    Each iteration is one :func:`loss_i` call and one backward pass over the
    whole mixed-rate batch, with noise seed ``(seed << 20) ^ (it * 7)``; the
    distortion is weighted and the noise drawn per rate group as
    :func:`loss_i` describes."""
    frames = np.asarray(dataset)
    frames = frames_to_float(frames[None] if frames.ndim == 3 else frames)
    if not len(frames):
        raise ConfigError("dataset is empty")
    if weights is None:
        weights = image_mod.init_autoencoder(lambda_set=cfg.lambda_set, seed=cfg.seed)
    if tuple(weights.lambda_set) != tuple(cfg.lambda_set):
        raise ConfigError("weights lambda_set does not match the training config")
    f = weights.downsample_factor
    if cfg.patch_h % f or cfg.patch_w % f:
        raise ConfigError(f"patch extents must be divisible by the downsampling factor {f}")

    def step(rng, it):
        idx = rng.integers(0, len(frames), size=cfg.batch_size)
        lams = rng.integers(0, len(cfg.lambda_set), size=cfg.batch_size)
        crops = []
        for k in range(cfg.batch_size):
            r, c = _random_crop(rng, frames.shape[2:], cfg.patch_h, cfg.patch_w)
            crops.append(frames[idx[k], :, r : r + cfg.patch_h, c : c + cfg.patch_w])

        loss, rate, dist = loss_i(
            np.stack(crops), [weights.rate(int(j)) for j in lams], weights,
            distortion=cfg.distortion, noise_seed=(cfg.seed << 20) ^ (it * 7),
        )
        backward(loss)
        return loss.item(), rate.item(), dist.item()

    return _optimize(weights, cfg, log_path, step)


def _frozen_latents(frames: np.ndarray, rate: RateIndex, weights: AutoencoderWeights) -> np.ndarray:
    latent = analyze(Tensor(frames.astype(np.float32)), [rate] * len(frames), weights)
    return round_half_away(latent.data)


def train_stem(dataset_pairs, frozen_weights: AutoencoderWeights, cfg: TrainConfig,
               flags: StemFlags = StemFlags(), stem_weights: Optional[StemWeights] = None,
               log_path=None) -> StemWeights:
    """Optimize the spatiotemporal entropy model on frame pairs.

    ``dataset_pairs`` holds clips of at least two (3, H, W) frames each.
    Each pair is (first frame of a clip, a random later frame), cropped at
    the same location; latents come from the frozen auto-encoder at one
    random rate index per batch, so a single model serves every rate.
    """
    clips = [frames_to_float(clip) for clip in dataset_pairs]
    if not clips:
        raise ConfigError("dataset is empty")
    if any(len(clip) < 2 for clip in clips):
        raise ConfigError("each clip needs at least 2 frames")
    frozen_weights.set_trainable(False)
    if stem_weights is None:
        stem_weights = init_stem(latent_channels=frozen_weights.latent_channels, seed=cfg.seed)
    f = frozen_weights.downsample_factor
    if cfg.patch_h % f or cfg.patch_w % f:
        raise ConfigError(f"patch extents must be divisible by the downsampling factor {f}")

    def step(rng, it):
        lam_idx = int(rng.integers(0, len(cfg.lambda_set)))
        refs, curs = [], []
        for _ in range(cfg.batch_size):
            clip = clips[int(rng.integers(0, len(clips)))]
            cur = int(rng.integers(1, clip.shape[0]))
            r, c = _random_crop(rng, clip.shape[2:], cfg.patch_h, cfg.patch_w)
            refs.append(clip[0, :, r : r + cfg.patch_h, c : c + cfg.patch_w])
            curs.append(clip[cur, :, r : r + cfg.patch_h, c : c + cfg.patch_w])

        rate = frozen_weights.rate(lam_idx)
        prev_latents, latents = np.split(_frozen_latents(np.stack(refs + curs), rate, frozen_weights), 2)

        loss = loss_p(latents, prev_latents, flags, stem_weights,
                      training=True, noise_seed=(cfg.seed << 20) ^ (it * 11))
        backward(loss)
        return loss.item(), loss.item(), 0.0

    return _optimize(stem_weights, cfg, log_path, step)
