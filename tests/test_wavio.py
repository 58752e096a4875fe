"""WAV container round trips and malformed-file error reporting."""

import gc
import struct
import warnings

import numpy as np
import pytest

from convbeam.wavio import AudioBuffer, WavError, read_wav, resample_check, write_wav


def _pcm16_file(path, samples, sample_rate=16000, extra_chunks=b"", fmt_body=None):
    """Hand-assemble a PCM16 WAV so the parser is tested against raw bytes."""
    interleaved = np.asarray(samples, dtype="<i2").tobytes()
    if fmt_body is None:
        channels = np.asarray(samples).shape[1] if np.asarray(samples).ndim == 2 else 1
        fmt_body = struct.pack(
            "<HHIIHH", 1, channels, sample_rate, sample_rate * 2 * channels, 2 * channels, 16
        )
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    chunks += extra_chunks
    chunks += b"data" + struct.pack("<I", len(interleaved)) + interleaved
    blob = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
    path.write_bytes(blob)
    return path


class TestAudioBuffer:
    def test_mono_promoted_to_2d(self):
        buf = AudioBuffer(np.zeros(10), 8000)
        assert buf.samples.shape == (1, 10)
        assert buf.num_channels == 1
        assert buf.num_samples == 10
        assert buf.duration == pytest.approx(10 / 8000)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="1-d or 2-d"):
            AudioBuffer(np.zeros((2, 3, 4)), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="positive"):
            AudioBuffer(np.zeros(4), 0)


class TestRoundTrips:
    def test_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((3, 997)).astype(np.float32).astype(np.float64)
        path = tmp_path / "f32.wav"
        write_wav(path, AudioBuffer(samples, 16000))
        back = read_wav(path)
        assert back.sample_rate == 16000
        assert back.samples.shape == (3, 997)
        np.testing.assert_array_equal(back.samples, samples)

    @pytest.mark.parametrize("encoding, width", [("pcm16", 2), ("float32", 4)])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_the_file_is_its_header_and_payload(self, tmp_path, encoding, width, channels):
        """An odd sample count still gives an even payload, 2 or 4 bytes a
        sample, so the file is the 44-byte header and the payload, no pad."""
        path = tmp_path / "odd.wav"
        write_wav(path, AudioBuffer(np.zeros((channels, 7)), 16000), encoding=encoding)
        blob = path.read_bytes()
        assert len(blob) == 44 + channels * 7 * width
        assert struct.unpack_from("<I", blob, 4) == (len(blob) - 8,)
        assert struct.unpack_from("<I", blob, 40) == (channels * 7 * width,)

    def test_pcm16_quantization_exact(self, tmp_path):
        samples = np.array([[0.0, 1.0 / 32768.0, -1.0, 0.5]])
        path = tmp_path / "p16.wav"
        write_wav(path, AudioBuffer(samples, 16000), encoding="pcm16")
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, samples)

    def test_pcm16_clips_out_of_range(self, tmp_path):
        samples = np.array([[2.0, -2.0]])
        path = tmp_path / "clip.wav"
        write_wav(path, AudioBuffer(samples, 16000), encoding="pcm16")
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, [[32767.0 / 32768.0, -1.0]])

    def test_multichannel_interleave_order(self, tmp_path):
        # channel c, sample n encoded as c + 10n: deinterleave must undo it
        samples = np.array([[0.0, 10.0, 20.0], [1.0, 11.0, 21.0]]) / 32768.0
        path = tmp_path / "inter.wav"
        write_wav(path, AudioBuffer(samples, 48000), encoding="pcm16")
        raw = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
        np.testing.assert_array_equal(raw, [0, 1, 10, 11, 20, 21])
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, samples)
        assert back.sample_rate == 48000

    def test_header_fields(self, tmp_path):
        path = tmp_path / "hdr.wav"
        write_wav(path, AudioBuffer(np.zeros((2, 5)), 16000))
        blob = path.read_bytes()
        assert blob[:4] == b"RIFF"
        assert blob[8:12] == b"WAVE"
        fmt = struct.unpack_from("<HHIIHH", blob, 20)
        assert fmt == (3, 2, 16000, 16000 * 8, 8, 32)
        assert blob[36:40] == b"data"
        assert struct.unpack_from("<I", blob, 40)[0] == 2 * 5 * 4

    def test_odd_sized_data_chunk(self, tmp_path):
        # an odd data size must be padded to keep the walk word-aligned,
        # and the half sample at the end is dropped
        body = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        data = b"\x00\x01\x02"  # 1.5 samples; trailing partial frame dropped
        chunks = b"fmt " + struct.pack("<I", 16) + body
        chunks += b"data" + struct.pack("<I", 3) + data + b"\x00"
        (tmp_path / "raw.wav").write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        back = read_wav(tmp_path / "raw.wav")
        assert back.num_samples == 1

    def test_zero_length_data(self, tmp_path):
        path = _pcm16_file(tmp_path / "empty.wav", np.zeros((0,), dtype=np.int16))
        back = read_wav(path)
        assert back.samples.shape == (1, 0)

    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_decode_equals_the_cast_transpose_copy(self, encoding, tmp_path):
        """The one-cast decode gives the bits of casting the interleaved
        samples, scaling PCM16, transposing and copying to C order."""
        x = np.random.default_rng(8).uniform(-1.0, 1.0, (3, 1001))
        x[:, :3] = [[-1.0, 0.0, 32767.0 / 32768.0]] * 3
        path = tmp_path / f"{encoding}.wav"
        write_wav(path, AudioBuffer(x, 16000), encoding=encoding)
        raw = np.frombuffer(path.read_bytes()[44:], dtype="<i2" if encoding == "pcm16" else "<f4")
        old = raw.astype(np.float64) / 32768.0 if encoding == "pcm16" else raw.astype(np.float64)
        want = np.ascontiguousarray(old.reshape(-1, 3).T)
        got = read_wav(path).samples
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_bad_encoding_name(self, tmp_path):
        with pytest.raises(ValueError, match="pcm16"):
            write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(4), 8000), encoding="mp3")


class TestFileHandling:
    def test_read_closes_the_file(self, tmp_path):
        path = _pcm16_file(tmp_path / "a.wav", np.arange(8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            read_wav(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestParserErrors:
    def test_too_short(self, tmp_path):
        p = tmp_path / "short.wav"
        p.write_bytes(b"RIFF")
        with pytest.raises(WavError, match="too short"):
            read_wav(p)

    def test_not_riff(self, tmp_path):
        p = tmp_path / "notriff.wav"
        p.write_bytes(b"FORM" + b"\x00" * 20)
        with pytest.raises(WavError, match="offset 0"):
            read_wav(p)

    def test_not_wave(self, tmp_path):
        p = tmp_path / "notwave.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 20) + b"AIFF" + b"\x00" * 12)
        with pytest.raises(WavError, match="offset 8"):
            read_wav(p)

    def test_truncated_chunk_reports_offset(self, tmp_path):
        body = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        chunks = b"fmt " + struct.pack("<I", 16) + body
        chunks += b"data" + struct.pack("<I", 100) + b"\x00" * 4
        p = tmp_path / "trunc.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        with pytest.raises(WavError, match="claims 100 bytes"):
            read_wav(p)

    def test_missing_fmt(self, tmp_path):
        chunks = b"data" + struct.pack("<I", 4) + b"\x00" * 4
        p = tmp_path / "nofmt.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        with pytest.raises(WavError, match="no fmt chunk"):
            read_wav(p)

    def test_missing_data(self, tmp_path):
        body = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        chunks = b"fmt " + struct.pack("<I", 16) + body
        p = tmp_path / "nodata.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        with pytest.raises(WavError, match="no data chunk"):
            read_wav(p)

    def test_unsupported_bits(self, tmp_path):
        body = struct.pack("<HHIIHH", 1, 1, 8000, 24000, 3, 24)
        p = _pcm16_file(tmp_path / "p24.wav", np.zeros(2, dtype=np.int16), fmt_body=body)
        with pytest.raises(WavError, match="unsupported encoding"):
            read_wav(p)

    def test_a_14_byte_fmt_chunk_is_refused(self, tmp_path):
        body = struct.pack("<HHIIH", 1, 1, 8000, 16000, 2)  # no bits-per-sample field
        p = _pcm16_file(tmp_path / "fmt14.wav", np.zeros(2, dtype=np.int16), fmt_body=body)
        with pytest.raises(WavError, match=r"offset 12: fmt chunk too small \(14 bytes\)$"):
            read_wav(p)

    def test_zero_channels(self, tmp_path):
        body = struct.pack("<HHIIHH", 1, 0, 8000, 0, 0, 16)
        p = _pcm16_file(tmp_path / "zch.wav", np.zeros(2, dtype=np.int16), fmt_body=body)
        with pytest.raises(WavError, match="0 channels"):
            read_wav(p)


class TestParserTolerance:
    def test_extra_chunk_skipped_with_word_alignment(self, tmp_path):
        # a 3-byte LIST payload forces the odd-size alignment path
        extra = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"
        p = _pcm16_file(tmp_path / "extra.wav", np.array([100, -100], dtype=np.int16), extra_chunks=extra)
        back = read_wav(p)
        np.testing.assert_array_equal(back.samples * 32768.0, [[100.0, -100.0]])

    def test_extensible_format_resolved_from_guid(self, tmp_path):
        guid = struct.pack("<H", 1) + b"\x00\x00" + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body = struct.pack("<HHIIHHH", 0xFFFE, 1, 8000, 16000, 2, 16, 22) + struct.pack("<HI", 16, 1) + guid
        p = _pcm16_file(tmp_path / "ext.wav", np.array([256], dtype=np.int16), fmt_body=body)
        back = read_wav(p)
        np.testing.assert_array_equal(back.samples, [[256.0 / 32768.0]])

    def test_trailing_partial_frame_dropped(self, tmp_path):
        body = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
        data = struct.pack("<hhh", 1, 2, 3)  # one full stereo frame + half
        chunks = b"fmt " + struct.pack("<I", 16) + body
        chunks += b"data" + struct.pack("<I", 6) + data
        p = tmp_path / "partial.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        back = read_wav(p)
        assert back.samples.shape == (2, 1)


class TestResampleCheck:
    def test_pass_through(self):
        buf = AudioBuffer(np.zeros(4), 16000)
        assert resample_check(buf, 16000) is buf

    def test_mismatch_names_both_rates(self):
        with pytest.raises(ValueError, match="8000 Hz.*16000 Hz"):
            resample_check(AudioBuffer(np.zeros(4), 8000), 16000)

    def test_bad_expected_rate(self):
        with pytest.raises(ValueError, match="positive"):
            resample_check(AudioBuffer(np.zeros(4), 8000), -1)
