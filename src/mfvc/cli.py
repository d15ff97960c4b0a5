"""Command-line surface: training, coding, evaluation, ablation, heatmaps.

Raw video files are frame-sequential 8-bit RGB, row-major and pixel
interleaved (the layout ffmpeg calls rgb24); dimensions always come from
flags or the config file. Options may be given in a ``key = value`` config
file (# comments allowed); command-line flags override file values. Every
command is deterministic given its config and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import metrics
from .coder import CorruptStreamError
from .container import ContainerError
from .image import init_autoencoder, load_autoencoder
from .serialize import WeightsFormatError
from .stem import StemFlags, load_stem, p_frame_symbol_bits
from .tensor import ConfigError
from .trainer import TrainConfig, train_image_model, train_stem
from .video import (
    GopConfig,
    VideoBitstream,
    compress_video,
    decompress_video,
    evaluate_video,
    synth_clips,
    synth_sequence,
)


@dataclass
class CliConfig:
    command: str = ""
    input: str = ""
    output: str = ""
    weights: str = ""
    stem_weights: str = ""
    original: str = ""
    csv: str = ""
    log: str = ""
    width: int = 0
    height: int = 0
    frames: int = 0
    gop_size: int = 10
    rate_index: int = 0
    use_spm: bool = True
    use_tpm: bool = True
    use_residual: bool = True
    lambda_set: tuple = TrainConfig.lambda_set
    batch_size: int = TrainConfig.batch_size
    patch_h: int = TrainConfig.patch_h
    patch_w: int = TrainConfig.patch_w
    lr_values: tuple = TrainConfig.lr_values
    lr_boundaries: tuple = TrainConfig.lr_boundaries
    total_iters: int = TrainConfig.total_iters
    distortion: str = TrainConfig.distortion
    seed: int = TrainConfig.seed
    latent_channels: int = 32
    downsample_factor: int = 4
    synth: str = ""
    synth_shift: int = 2
    frame_index: int = 1


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(name: str, text: str, kind):
    if kind is bool:
        word = text.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"key '{name}' needs a boolean, got '{text}'")
        return _BOOL_WORDS[word]
    if kind is int:
        return int(text)
    if kind is tuple:
        return number_tuple(text)
    return text.strip()


def number_tuple(text: str) -> tuple:
    """Numbers separated by commas or spaces; argparse names it in errors."""
    parts = [p for p in text.replace(",", " ").split() if p]
    return tuple(int(p) if p.lstrip("+-").isdigit() else float(p) for p in parts)


def load_config(path) -> CliConfig:
    """Parse a ``key = value`` config file into a CliConfig.

    Unknown and duplicate keys are rejected with the offending line number
    and key name.
    """
    types = {f.name: type(getattr(CliConfig(), f.name)) for f in fields(CliConfig)}
    cfg = CliConfig()
    seen: set[str] = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            seen.add(key)
            try:
                setattr(cfg, key, _parse_value(key, value, types[key]))
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# Raw frame I/O
# ---------------------------------------------------------------------------


def read_raw_video(path, width: int, height: int, frames: int) -> np.ndarray:
    frame_bytes = width * height * 3
    with open(path, "rb") as fh:
        data = fh.read(frame_bytes * frames)
    if len(data) < frame_bytes * frames:
        raise ConfigError(f"{path}: holds {len(data) // frame_bytes} frames, asked for {frames}")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(frames, height, width, 3)
    return np.ascontiguousarray(arr.transpose(0, 3, 1, 2))


def write_raw_video(path, frames_chw: np.ndarray) -> None:
    arr = np.asarray(frames_chw, dtype=np.uint8).transpose(0, 2, 3, 1)
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(arr).tobytes())


def _load_frames(cfg: CliConfig) -> np.ndarray:
    if cfg.synth:
        if not (cfg.width and cfg.height and cfg.frames):
            raise ConfigError("synthetic input needs width, height and frames")
        return synth_sequence(cfg.synth, cfg.frames, cfg.height, cfg.width, cfg.seed, shift=cfg.synth_shift)
    if not cfg.input:
        raise ConfigError("no input: give --input or --synth")
    if not (cfg.width and cfg.height and cfg.frames):
        raise ConfigError("raw input needs width, height and frames")
    return read_raw_video(cfg.input, cfg.width, cfg.height, cfg.frames)


def _flags(cfg: CliConfig) -> StemFlags:
    return StemFlags(cfg.use_spm, cfg.use_tpm, cfg.use_residual)


def _train_config(cfg: CliConfig) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_train_image(cfg: CliConfig) -> int:
    frames = _load_frames(cfg)
    tc = _train_config(cfg)
    weights = init_autoencoder(
        latent_channels=cfg.latent_channels,
        downsample_factor=cfg.downsample_factor,
        lambda_set=tc.lambda_set,
        seed=cfg.seed,
    )
    weights = train_image_model(frames, tc, weights=weights, log_path=cfg.log or None)
    weights.save(cfg.output)
    print(f"wrote auto-encoder weights to {cfg.output}")
    return 0


def _cmd_train_stem(cfg: CliConfig) -> int:
    ae = load_autoencoder(cfg.weights)
    tc = _train_config(cfg)
    if cfg.synth:
        clips = synth_clips(cfg.synth, max(cfg.frames // 7, 1), 7, cfg.height, cfg.width, cfg.seed,
                            shift=cfg.synth_shift)
    else:
        video = _load_frames(cfg)
        if len(video) < 2:
            raise ConfigError("need at least 2 frames to form training pairs")
        step = 7
        clips = [video[i : i + step] for i in range(0, len(video) - 1, step)]
        clips = [c for c in clips if len(c) >= 2]
    stem = train_stem(clips, ae, tc, flags=_flags(cfg), log_path=cfg.log or None)
    stem.save(cfg.output)
    print(f"wrote entropy-model weights to {cfg.output}")
    return 0


def _cmd_compress(cfg: CliConfig) -> int:
    frames = _load_frames(cfg)
    ae = load_autoencoder(cfg.weights)
    stem = load_stem(cfg.stem_weights)
    gop = GopConfig(gop_size=cfg.gop_size, rate=ae.rate(cfg.rate_index), flags=_flags(cfg))
    stream = compress_video(frames, ae, stem, gop)
    blob = stream.to_bytes()
    with open(cfg.output, "wb") as fh:
        fh.write(blob)
    total_px = cfg.width * cfg.height * len(frames)
    print(f"wrote {len(blob)} bytes ({8 * len(blob) / total_px:.4f} bpp) to {cfg.output}")
    return 0


def _cmd_decompress(cfg: CliConfig) -> int:
    with open(cfg.input, "rb") as fh:
        stream = VideoBitstream.from_bytes(fh.read())
    ae = load_autoencoder(cfg.weights)
    stem = load_stem(cfg.stem_weights)
    frames = decompress_video(stream, ae, stem)
    write_raw_video(cfg.output, frames)
    print(f"wrote {frames.shape[0]} frames of {stream.header.width}x{stream.header.height} to {cfg.output}")
    return 0


def _cmd_eval(cfg: CliConfig) -> int:
    with open(cfg.input, "rb") as fh:
        stream = VideoBitstream.from_bytes(fh.read())
    ae = load_autoencoder(cfg.weights)
    stem = load_stem(cfg.stem_weights)
    original = read_raw_video(cfg.original, stream.header.width, stream.header.height, stream.header.frame_count)
    rows = evaluate_video(stream, original, ae, stem)
    metrics.write_eval_csv(cfg.csv or cfg.output, rows)
    mean_psnr = float(np.mean([r["psnr"] for r in rows]))
    bpp = metrics.bpp(stream.total_bits, stream.header.width, stream.header.height, len(rows))
    print(
        f"{len(rows)} frames, {bpp:.4f} bpp, "
        f"mean PSNR {mean_psnr:.2f} dB"
    )
    return 0


_ABLATION_MATRIX = (
    ("full", StemFlags(True, True, True)),
    ("w/o SPM", StemFlags(False, True, True)),
    ("w/o TPM", StemFlags(True, False, True)),
    ("w/o SPM & TPM", StemFlags(False, False, True)),
    ("w/o Residual", StemFlags(True, True, False)),
)


def _cmd_ablate(cfg: CliConfig) -> int:
    frames = _load_frames(cfg)
    ae = load_autoencoder(cfg.weights)
    stem = load_stem(cfg.stem_weights)
    rate = ae.rate(cfg.rate_index)

    anchor = compress_video(frames, ae, stem, GopConfig(gop_size=1, rate=rate))
    anchor_bits = anchor.total_bits
    print(f"anchor (all-I, GOP 1): {anchor_bits} bits")
    print(f"{'variant':<16} {'bits':>12} {'savings':>9}")
    for name, flags in _ABLATION_MATRIX:
        stream = compress_video(frames, ae, stem, GopConfig(gop_size=cfg.gop_size, rate=rate, flags=flags))
        bits = stream.total_bits
        saving = (1.0 - bits / anchor_bits) * 100.0
        print(f"{name:<16} {bits:>12} {saving:>8.2f}%")
    return 0


def _cmd_heatmap(cfg: CliConfig) -> int:
    frames = _load_frames(cfg)
    if not 1 <= cfg.frame_index < len(frames):
        raise ConfigError(f"frame_index must be in [1, {len(frames) - 1}] for a P-frame heatmap")
    ae = load_autoencoder(cfg.weights)
    stem = load_stem(cfg.stem_weights)
    rate = ae.rate(cfg.rate_index)
    stream, latents = compress_video(
        frames[: cfg.frame_index + 1], ae, stem,
        GopConfig(gop_size=cfg.frame_index + 1, rate=rate, flags=_flags(cfg)),
        return_latents=True,
    )
    bits_plane, _ = p_frame_symbol_bits(latents[cfg.frame_index], latents[cfg.frame_index - 1], _flags(cfg), stem)
    hm = metrics.entropy_heatmap(bits_plane, ae.downsample_factor)
    metrics.save_heatmap_csv(cfg.output + ".csv", hm)
    metrics.save_heatmap_pgm(cfg.output + ".pgm", hm)
    print(f"wrote {cfg.output}.csv and {cfg.output}.pgm ({hm.sum():.1f} bits total)")
    return 0


_COMMANDS = {
    "train-image": _cmd_train_image,
    "train-stem": _cmd_train_stem,
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "heatmap": _cmd_heatmap,
}


_CHOICES = {"distortion": ("mse", "ms-ssim"), "synth": ("translate", "zoom", "noise_static")}


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per command; every CliConfig field is a flag:
    ``--field-name``, or ``--no-x`` for a ``use_x`` switch."""
    parser = argparse.ArgumentParser(prog="mfvc", description="Motion-free video codec")
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(_COMMANDS))
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file; flags override it")
        for f in fields(CliConfig):
            kind = type(f.default)
            if f.name == "command":
                continue
            if kind is bool:
                flag = "--no-" + f.name.removeprefix("use_").replace("_", "-")
                p.add_argument(flag, dest=f.name, action="store_false", default=None)
            else:
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                               type=number_tuple if kind is tuple else kind, choices=_CHOICES.get(f.name))
    return parser


def run(argv) -> int:
    """Dispatch one command; returns the process exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config) if args.config else CliConfig()
        overrides = {f.name: getattr(args, f.name) for f in fields(CliConfig) if getattr(args, f.name) is not None}
        return _COMMANDS[args.command](replace(cfg, **overrides))
    except (OSError, ContainerError, CorruptStreamError, WeightsFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
