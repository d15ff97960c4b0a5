"""On-disk bitstream container: a fixed header followed by per-frame chunks.

All integers are little-endian. Each chunk carries its own lengths, so a
corrupted chunk payload never damages the frames before it. A file must
end right after the header's count of chunks: one cut short, or one with
bytes after its last chunk, fails to parse, and so does a header with a
zero width, height or GOP size, or a flag bit outside the three branch
flags.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .coder import CodedStream

VIDEO_MAGIC = b"MFVC"
VIDEO_VERSION = 3

FRAME_I = 0
FRAME_P = 1

_HEADER_FMT = "<4sBIIIBBHBB8s"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)
CHUNK_HEADER_SIZE = 9  # frame type byte + two u32 lengths

FLAG_SPM = 1
FLAG_TPM = 2
FLAG_RESIDUAL = 4


class ContainerError(ValueError):
    """Raised when a bitstream container cannot be parsed."""


class DigestMismatchError(ContainerError):
    """Raised when the decoder's model weights do not match the stream."""


@dataclass
class VideoHeader:
    width: int
    height: int
    frame_count: int
    gop_size: int
    rate_index: int
    latent_channels: int
    downsample_factor: int
    flags: int
    model_digest: bytes

    def to_bytes(self) -> bytes:
        return struct.pack(
            _HEADER_FMT,
            VIDEO_MAGIC,
            VIDEO_VERSION,
            self.width,
            self.height,
            self.frame_count,
            self.gop_size,
            self.rate_index,
            self.latent_channels,
            self.downsample_factor,
            self.flags,
            self.model_digest,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "VideoHeader":
        if len(data) < HEADER_SIZE:
            raise ContainerError("truncated header")
        magic, version, width, height, frame_count, gop, rate, ch, factor, flags, digest = struct.unpack_from(
            _HEADER_FMT, data
        )
        if magic != VIDEO_MAGIC:
            raise ContainerError("not a video bitstream (bad magic)")
        if version != VIDEO_VERSION:
            raise ContainerError(f"unsupported bitstream version {version}")
        if width == 0 or height == 0:
            raise ContainerError(f"empty frame extent {width}x{height}")
        if gop == 0:
            raise ContainerError("GOP size 0")
        unknown = flags & ~(FLAG_SPM | FLAG_TPM | FLAG_RESIDUAL)
        if unknown:
            raise ContainerError(f"unknown flag bits {unknown:#04x}")
        return cls(width, height, frame_count, gop, rate, ch, factor, flags, digest)


@dataclass
class FrameChunk:
    """One coded frame: hyper-latent stream plus latent (or residual) stream."""

    frame_type: int
    z_stream: CodedStream
    y_stream: CodedStream

    @property
    def total_bits(self) -> int:
        return 8 * (CHUNK_HEADER_SIZE + len(self.z_stream.data) + len(self.y_stream.data))

    def to_bytes(self) -> bytes:
        z, y = self.z_stream.data, self.y_stream.data
        return struct.pack("<BII", self.frame_type, len(z), len(y)) + z + y

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["FrameChunk", int]:
        """Parse one chunk; returns (chunk, next offset).

        Symbol counts come from the header geometry at decode time.
        """
        if offset + CHUNK_HEADER_SIZE > len(data):
            raise ContainerError("truncated chunk header")
        frame_type, z_len, y_len = struct.unpack_from("<BII", data, offset)
        if frame_type not in (FRAME_I, FRAME_P):
            raise ContainerError(f"unknown frame type {frame_type}")
        start = offset + CHUNK_HEADER_SIZE
        end = start + z_len + y_len
        if end > len(data):
            raise ContainerError("truncated chunk payload")
        z = CodedStream(data[start : start + z_len])
        y = CodedStream(data[start + z_len : end])
        return cls(frame_type, z, y), end


def pack_flags(use_spm: bool, use_tpm: bool, use_residual: bool) -> int:
    return (FLAG_SPM if use_spm else 0) | (FLAG_TPM if use_tpm else 0) | (FLAG_RESIDUAL if use_residual else 0)


def unpack_flags(bits: int) -> tuple[bool, bool, bool]:
    return bool(bits & FLAG_SPM), bool(bits & FLAG_TPM), bool(bits & FLAG_RESIDUAL)
