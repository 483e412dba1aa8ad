import struct

import numpy as np
import pytest

from avfusion.errors import (BadTensorName, CorruptMagic, DimOverflow, NonFiniteValue,
                             TruncatedFile)
from avfusion.featfile import (load_checkpoint, load_features, save_checkpoint,
                               save_features)
from avfusion.features import FeatureSet
from avfusion.rng import Rng


class TestFeatureFile:
    def test_round_trip_within_float32_rounding(self, tmp_path):
        rng = Rng(41)
        fs = FeatureSet(rng.normal_mat(7, 5))
        path = tmp_path / "f.avf"
        save_features(path, fs)
        back = load_features(path)
        assert (back.n, back.dim) == (7, 5)
        rel = np.abs(back.vectors - fs.vectors) / np.maximum(np.abs(fs.vectors), 1e-30)
        assert np.max(rel) <= 1.2e-7

    def test_round_trip_is_bit_exact_for_float32_values(self, tmp_path):
        values = np.array([[1.0, -0.5, 0.25, 3.0]])
        path = tmp_path / "exact.avf"
        save_features(path, FeatureSet(values))
        assert np.array_equal(load_features(path).vectors, values)

    def test_empty_file_is_corrupt_magic(self, tmp_path):
        path = tmp_path / "empty.avf"
        path.write_bytes(b"")
        with pytest.raises(CorruptMagic):
            load_features(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "wrong.avf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CorruptMagic):
            load_features(path)

    def test_declared_dims_exceeding_payload(self, tmp_path):
        path = tmp_path / "short.avf"
        path.write_bytes(b"AVF1" + struct.pack("<II", 10, 10) + b"\x00" * 8)
        with pytest.raises(TruncatedFile):
            load_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.avf"
        payload = struct.pack("<f", 1.25)
        path.write_bytes(b"AVF1" + struct.pack("<II", 1, 1) + payload + b"xx")
        with pytest.raises(TruncatedFile):
            load_features(path)

    def test_zero_dims_rejected(self, tmp_path):
        path = tmp_path / "zero.avf"
        path.write_bytes(b"AVF1" + struct.pack("<II", 0, 4))
        with pytest.raises(DimOverflow):
            load_features(path)

    def test_absurd_dims_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "huge.avf"
        path.write_bytes(b"AVF1" + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(DimOverflow):
            load_features(path)


class TestCheckpoint:
    def test_round_trip_preserves_values_and_order(self, tmp_path):
        rng = Rng(42)
        tensors = {"clf.weight": rng.normal_mat(3, 4),
                   "clf.bias": rng.normal_vec(3),
                   "fbp.u_tilde": rng.normal_mat(2, 6)}
        path = tmp_path / "ck.bin"
        save_checkpoint(path, tensors)
        back = load_checkpoint(path)
        assert list(back) == list(tensors)
        assert np.array_equal(back["clf.weight"], tensors["clf.weight"])
        # vectors come back as column matrices
        assert back["clf.bias"].shape == (3, 1)
        assert np.array_equal(back["clf.bias"][:, 0], tensors["clf.bias"])

    def test_identical_tensors_identical_bytes(self, tmp_path):
        rng = Rng(43)
        tensors = {"a": rng.normal_mat(4, 4), "b": rng.normal_vec(2)}
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        save_checkpoint(p1, tensors)
        save_checkpoint(p2, {k: v.copy() for k, v in tensors.items()})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTACKPT")
        with pytest.raises(CorruptMagic):
            load_checkpoint(path)

    def test_truncated_tensor_payload(self, tmp_path):
        path = tmp_path / "trunc.bin"
        body = struct.pack("<H", 1) + b"w" + struct.pack("<II", 2, 2) + b"\x00" * 8
        path.write_bytes(b"AVFCKPT1" + body)
        with pytest.raises(TruncatedFile):
            load_checkpoint(path)

    def test_invalid_declared_shape(self, tmp_path):
        path = tmp_path / "shape.bin"
        body = struct.pack("<H", 1) + b"w" + struct.pack("<II", 0, 5)
        path.write_bytes(b"AVFCKPT1" + body)
        with pytest.raises(DimOverflow):
            load_checkpoint(path)

    def test_name_that_is_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "name.bin"
        body = struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<II", 1, 1) + b"\x00" * 8
        path.write_bytes(b"AVFCKPT1" + body)
        with pytest.raises(BadTensorName):
            load_checkpoint(path)

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.bin"
        tensor = struct.pack("<H", 1) + b"w" + struct.pack("<II", 1, 1) + struct.pack("<d", 1.0)
        path.write_bytes(b"AVFCKPT1" + tensor + tensor)
        with pytest.raises(BadTensorName):
            load_checkpoint(path)

    def test_non_finite_values_rejected(self, tmp_path):
        path = tmp_path / "nan.bin"
        save_checkpoint(path, {"w": np.array([1.0, np.nan])})
        with pytest.raises(NonFiniteValue):
            load_checkpoint(path)
