import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzing import EDITS, mutate

from mfvc.image import AutoencoderWeights, init_autoencoder, load_autoencoder
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
        # A zero extent needs no payload, but NumPy refuses the others.
        with pytest.raises(WeightsFormatError, match="too large for an array"):
            deserialize_named_tensors(one_tensor(b"x", (2**24, 2**24, 2**24, 0)))


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

    @pytest.mark.parametrize("c, hc", [(300, 1), (1, 300)])
    def test_autoencoder_square_layers_checked_before_allocating(self, tmp_path, c, hc):
        # The one c x hc kernel the check used to ask for holds 2,700
        # floats. At c = 300 the two 300 x 300 x 5 x 5 kernels built before
        # the first missing tensor was found took a 34 MiB peak; at hc = 300
        # the four hyper layers would take more.
        named = {
            "meta.kind": np.ones((1, 1, 1, 1), np.float32),
            "meta.arch": np.array([c, 4, hc, 1], np.float32).reshape(1, 4, 1, 1),
            "meta.lambda_set": np.full((1, 1, 1, 1), 8.0, np.float32),
            "hyper_enc.0.kernel": np.zeros((hc, c, 3, 3), np.float32),
        }
        path = self.save(tmp_path, named)
        assert path.stat().st_size == 10_957
        tracemalloc.start()
        try:
            with pytest.raises(WeightsFormatError, match="meta.arch does not match"):
                load_autoencoder(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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


@pytest.fixture(scope="module")
def fuzz_blobs():
    """A small valid weights file of each kind: an auto-encoder with
    square analysis and synthesis layers, and an entropy model."""
    return [init_autoencoder(2, 4, (8.0,), hyper_channels=2, seed=0).to_bytes(), init_stem(2, seed=0).to_bytes()]


class TestWeightsFuzz:
    """Every byte string parses to tensors or raises WeightsFormatError, and
    loads as a model of either kind or raises WeightsFormatError or
    ConfigError."""

    @staticmethod
    def load_or_reject(path, data: bytes) -> None:
        try:
            named = deserialize_named_tensors(data)
        except WeightsFormatError:
            pass
        else:
            assert all(arr.ndim == 4 and arr.dtype == np.float32 for arr in named.values())
        path.write_bytes(data)
        for load, kind in ((load_autoencoder, AutoencoderWeights), (load_stem, StemWeights)):
            try:
                model = load(path)
            except (WeightsFormatError, ConfigError):
                continue
            assert isinstance(model, kind)

    @given(prefix=st.sampled_from([0, len(MAGIC) + 1]), kind=st.sampled_from([0, 1]), tail=st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_random_bytes(self, tmp_path_factory, fuzz_blobs, prefix, kind, tail):
        # With the valid magic and version kept, the random bytes reach the
        # tensor records.
        path = tmp_path_factory.getbasetemp() / "fuzz.mfvcw"
        self.load_or_reject(path, fuzz_blobs[kind][:prefix] + tail)

    @given(st.sampled_from([0, 1]), EDITS)
    @settings(max_examples=300, deadline=None)
    def test_mutated_valid_file(self, tmp_path_factory, fuzz_blobs, kind, edits):
        path = tmp_path_factory.getbasetemp() / "fuzz.mfvcw"
        self.load_or_reject(path, mutate(fuzz_blobs[kind], edits))
