"""Gain mask arithmetic and file format tests."""

import struct

import numpy as np
import pytest

from convbeam.gains import apply_gain, mask_for_utterance, read_gain_mask, write_gain_mask


class TestApplyGain:
    def test_squared_scaling(self):
        assert apply_gain(2.0, 0.5) == pytest.approx(0.5)
        assert apply_gain(3.0, 1.0) == 3.0
        assert apply_gain(3.0, 0.0) == 0.0

    def test_never_amplifies(self):
        rng = np.random.default_rng(0)
        phi = rng.uniform(0.0, 10.0, size=1000)
        g = rng.uniform(0.0, 1.0, size=1000)
        assert np.all(apply_gain(phi, g) <= phi)

    def test_above_one_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            out = apply_gain(2.0, 1.5)
        assert out == 2.0

    def test_negative_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            out = apply_gain(2.0, -0.3)
        assert out == 0.0


class TestMaskFile:
    def test_round_trip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.uniform(0.0, 1.0, size=(17, 9)).astype(np.float32).astype(np.float64)
        path = tmp_path / "mask.gmsk"
        write_gain_mask(path, mask)
        back = read_gain_mask(path)
        np.testing.assert_array_equal(back, mask)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "mask.gmsk"
        write_gain_mask(path, np.zeros((3, 5)))
        blob = path.read_bytes()
        assert blob[:4] == b"GMSK"
        assert struct.unpack_from("<II", blob, 4) == (3, 5)
        assert len(blob) == 12 + 4 * 15

    def test_bin_major_order(self, tmp_path):
        path = tmp_path / "mask.gmsk"
        mask = np.arange(6, dtype=np.float64).reshape(2, 3) / 10.0
        write_gain_mask(path, mask)
        raw = np.frombuffer(path.read_bytes(), dtype="<f4", offset=12)
        np.testing.assert_allclose(raw[:3], mask[0], rtol=1e-6)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "bad.gmsk"
        path.write_bytes(b"GM")
        with pytest.raises(OSError, match="truncated"):
            read_gain_mask(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.gmsk"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(OSError, match="magic"):
            read_gain_mask(path)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.gmsk"
        path.write_bytes(b"GMSK" + struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(OSError, match="expected"):
            read_gain_mask(path)

    def test_out_of_range_values_clamped_with_warning(self, tmp_path):
        path = tmp_path / "hot.gmsk"
        data = np.array([[2.0, -1.0, 0.5]])
        write_gain_mask(path, data)
        with pytest.warns(UserWarning, match="clamping"):
            back = read_gain_mask(path)
        np.testing.assert_allclose(back, [[1.0, 0.0, 0.5]])

    def test_non_2d_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_gain_mask(tmp_path / "x.gmsk", np.zeros(4))


class TestProviders:
    def test_mask_file_provider(self, tmp_path):
        path = tmp_path / "mask.gmsk"
        mask = np.full((5, 6), 0.25)
        write_gain_mask(path, mask)
        np.testing.assert_allclose(mask_for_utterance(path, 5, 6), mask, rtol=1e-7)

    def test_dimension_mismatch_names_file(self, tmp_path):
        path = tmp_path / "mask.gmsk"
        write_gain_mask(path, np.full((5, 6), 0.25))
        with pytest.raises(ValueError, match="mask.gmsk"):
            mask_for_utterance(path, 5, 7)
