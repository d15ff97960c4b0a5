"""Motion-free video codec.

A unified frame auto-encoder turns every frame into quantized integer
latents; a spatiotemporal entropy model predicts Laplacian distributions
over P-frame residual latents; a rANS coder makes the latents a decodable
bitstream. Latents travel losslessly, so reference frames never degrade
and reconstruction quality is independent of GOP position.

The package is organized by stage:

- :mod:`mfvc.tensor` - dense 4-D tensors with reverse-mode gradients
- :mod:`mfvc.coder` - rANS coder and discretized Laplacian tables
- :mod:`mfvc.image` - rate-conditioned auto-encoder (I-frame codec)
- :mod:`mfvc.stem` - spatiotemporal entropy model (P-frame codec)
- :mod:`mfvc.trainer` - Adam, rate-distortion losses, training loops
- :mod:`mfvc.video` - GOP pipeline, bitstream container, synthetic data
- :mod:`mfvc.metrics` - PSNR, MS-SSIM, bpp, rate-curve comparison
- :mod:`mfvc.cli` - command-line entry point
"""

from .coder import (
    CodedStream,
    CorruptStreamError,
    DiscretePmf,
    decode_plane,
    discretize_laplacian,
    encode_plane,
    plane_cross_entropy,
)
from .container import FrameChunk, VideoHeader
from .image import (
    AutoencoderWeights,
    RateIndex,
    analyze,
    compress_iframe,
    conditional_scale,
    decompress_iframe,
    i_entropy_params,
    init_autoencoder,
    load_autoencoder,
    synthesize,
)
from .metrics import RdPoint, bd_rate, bpp, entropy_heatmap, ms_ssim, psnr
from .stem import (
    StemFlags,
    StemWeights,
    decode_pframe,
    encode_pframe,
    entropy_params,
    hyper_encode,
    init_stem,
    load_stem,
    p_frame_rate,
    reconstruct_latent,
    residual_latent,
    spatial_prior,
    temporal_prior,
)
from .tensor import (
    ConvLayer,
    Tensor,
    add_uniform_noise,
    backward,
    concat_channels,
    conv2d,
    finite_diff_check,
    leaky_relu,
    masked_conv2d,
    quantize_round,
    transpose_conv2d,
)
from .trainer import OptimizerState, TrainConfig, adam_step, loss_i, loss_p, lr_at, train_image_model, train_stem
from .video import (
    GopConfig,
    VideoBitstream,
    compress_video,
    decompress_video,
    evaluate_video,
    gop_schedule,
    synth_sequence,
)

__version__ = "0.1.0"
