import struct

import numpy as np
import pytest

from mfvc.image import init_autoencoder, load_autoencoder
from mfvc.serialize import MAGIC, VERSION, WeightsFormatError, deserialize_named_tensors, serialize_named_tensors
from mfvc.stem import StemWeights, init_stem, load_stem
from mfvc.tensor import ConfigError


@pytest.fixture(scope="module")
def blob():
    return init_stem(4, seed=0).to_bytes()


def one_tensor(name: bytes, shape, payload: bytes = b"") -> bytes:
    return (MAGIC + bytes([VERSION]) + struct.pack("<I", 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<4I", *shape) + payload)


class TestParserIsTotal:
    def test_roundtrip(self, blob):
        named = deserialize_named_tensors(blob)
        assert serialize_named_tensors(named) == blob

    def test_every_prefix_raises_format_error(self, blob):
        for n in range(len(blob)):
            with pytest.raises(WeightsFormatError):
                deserialize_named_tensors(blob[:n])

    def test_trailing_bytes_rejected(self, blob):
        with pytest.raises(WeightsFormatError, match="trailing"):
            deserialize_named_tensors(blob + b"\0")

    def test_bad_version_rejected(self, blob):
        with pytest.raises(WeightsFormatError, match="version"):
            deserialize_named_tensors(MAGIC + bytes([VERSION + 1]) + blob[len(MAGIC) + 1 :])

    def test_name_not_utf8(self):
        with pytest.raises(WeightsFormatError, match="UTF-8"):
            deserialize_named_tensors(one_tensor(b"\xff\xfe", (1, 1, 1, 1), b"\0" * 4))

    def test_huge_extents_do_not_allocate(self):
        # Four u32 extents near 2^32 would wrap a 64-bit product; the exact
        # size is compared against the bytes present before anything is read.
        with pytest.raises(WeightsFormatError, match="truncated"):
            deserialize_named_tensors(one_tensor(b"x", (2**32 - 1,) * 4))
        with pytest.raises(WeightsFormatError, match="truncated"):
            deserialize_named_tensors(one_tensor(b"x", (2**16, 2**16, 2**16, 2**16)))


class TestLoaderChecksMeta:
    def save(self, tmp_path, named):
        path = tmp_path / "w.mfvcw"
        path.write_bytes(serialize_named_tensors(named))
        return path

    def test_missing_arch(self, tmp_path):
        named = init_stem(4, seed=0).to_named()
        del named["meta.arch"]
        with pytest.raises(WeightsFormatError, match="meta.arch"):
            load_stem(self.save(tmp_path, named))

    def test_arch_wrong_size(self, tmp_path):
        named = init_stem(4, seed=0).to_named()
        named["meta.arch"] = np.zeros((1, 3, 1, 1), np.float32)
        with pytest.raises(WeightsFormatError, match="meta.arch"):
            load_stem(self.save(tmp_path, named))

    def test_zero_downsampling_factor(self, tmp_path):
        named = init_autoencoder(4, 4, (8.0,), seed=0).to_named()
        named["meta.arch"][0, 1] = 0.0
        with pytest.raises(ConfigError, match="downsampling factor"):
            load_autoencoder(self.save(tmp_path, named))

    @pytest.mark.parametrize("slot", [0, 2])
    def test_autoencoder_arch_checked_before_allocating(self, tmp_path, slot):
        # 2^31 latent channels would size a 1.17 TiB model before any
        # tensor shape was compared.
        named = init_autoencoder(4, 4, (8.0,), seed=0).to_named()
        named["meta.arch"][0, slot] = float(2**31)
        with pytest.raises(WeightsFormatError, match="meta.arch does not match"):
            load_autoencoder(self.save(tmp_path, named))

    def test_stem_arch_checked_before_allocating(self, tmp_path):
        named = init_stem(4, seed=0).to_named()
        named["meta.arch"][0, 0] = float(2**31)
        with pytest.raises(WeightsFormatError, match="meta.arch does not match"):
            load_stem(self.save(tmp_path, named))

    def test_missing_or_malformed_kind(self, tmp_path):
        named = init_stem(4, seed=0).to_named()
        named["meta.kind"] = np.full((1, 2, 1, 1), StemWeights.KIND, np.float32)
        with pytest.raises(WeightsFormatError, match="weights file"):
            load_stem(self.save(tmp_path, named))
        del named["meta.kind"]
        with pytest.raises(WeightsFormatError, match="weights file"):
            load_autoencoder(self.save(tmp_path, named))
