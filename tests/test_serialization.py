"""Protobuf-like wire format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import (
    FeatureRecord,
    decode_varint,
    deserialize_record,
    encode_varint,
    serialize_record,
)
from repro.errors import SerializationError


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**60])
    def test_roundtrip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)

    def test_single_byte_below_128(self):
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(SerializationError, match="truncated"):
            decode_varint(b"\x80")

    def test_overlong(self):
        with pytest.raises(SerializationError, match="too long"):
            decode_varint(b"\xff" * 11)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value


class TestFeatureRecord:
    def _record(self, precision="fp16", m=12, d=16, scale=2.0**-7):
        rng = np.random.default_rng(0)
        dtype = np.float16 if precision == "fp16" else np.float32
        return FeatureRecord(
            ref_id="brick-0042",
            matrix=rng.random((d, m)).astype(dtype),
            precision=precision,
            scale=scale,
        )

    @pytest.mark.parametrize("precision", ["fp16", "fp32"])
    def test_roundtrip(self, precision):
        record = self._record(precision)
        back = deserialize_record(serialize_record(record))
        assert back.ref_id == record.ref_id
        assert back.precision == precision
        assert back.scale == record.scale
        np.testing.assert_array_equal(back.matrix, record.matrix)

    @pytest.mark.parametrize("precision", ["fp16", "fp32"])
    def test_dequantized_undoes_the_fp16_scale_only(self, precision):
        record = self._record(precision, scale=0.25)
        out = record.dequantized()
        assert out.dtype == np.float32
        expected = record.matrix.astype(np.float32)
        if precision == "fp16":
            expected = expected / np.float32(0.25)
        np.testing.assert_array_equal(out, expected)

    def test_unicode_ids(self):
        record = FeatureRecord("普洱茶-砖-7", np.ones((2, 2), np.float16), "fp16", 1.0)
        back = deserialize_record(serialize_record(record))
        assert back.ref_id == "普洱茶-砖-7"

    def test_truncated_payload(self):
        data = serialize_record(self._record())
        with pytest.raises(SerializationError):
            deserialize_record(data[: len(data) // 2])

    def test_missing_field(self):
        # varint field 1 only
        with pytest.raises(SerializationError, match="missing required"):
            deserialize_record(encode_varint(1 << 3) + encode_varint(1))

    def test_size_mismatch_detected(self):
        # declare (2, 3) dims but ship a (2, 2) payload
        good = serialize_record(FeatureRecord("x", np.ones((2, 2), np.float16), "fp16", 1.0))
        bad_dims = serialize_record(FeatureRecord("x", np.ones((2, 3), np.float16), "fp16", 1.0))
        # splice: take the bad record's header fields but the good
        # record's (shorter) matrix bytes — simplest is to decode the
        # good record and re-encode with forged m via raw surgery, so
        # instead assert both corrupted-truncation styles raise.
        with pytest.raises(SerializationError):
            deserialize_record(bad_dims[:-2])
        with pytest.raises(SerializationError):
            deserialize_record(good[:-1])

    def test_payload_size_mismatch(self):
        """Hand-crafted record declaring (2, 3) but shipping 8 bytes."""
        import struct

        from repro.distributed.serialization import _bytes_field, _varint_field

        blob = b"".join(
            [
                _varint_field(1, 1),
                _bytes_field(2, b"x"),
                _varint_field(3, 2),  # d
                _varint_field(4, 3),  # m
                _bytes_field(5, b"fp16"),
                _bytes_field(6, struct.pack("<d", 1.0)),
                _bytes_field(7, b"\x00" * 8),  # 2*2*2 bytes, not 2*3*2
            ]
        )
        with pytest.raises(SerializationError, match="payload"):
            deserialize_record(blob)

    def test_unknown_fields_skipped(self):
        record = self._record()
        data = serialize_record(record)
        extra = encode_varint((99 << 3) | 0) + encode_varint(7)  # unknown varint field
        back = deserialize_record(data + extra)
        assert back.ref_id == record.ref_id

    def test_bad_precision(self):
        with pytest.raises(SerializationError):
            FeatureRecord("x", np.ones((2, 2)), "fp64", 1.0)

    def test_matrix_must_be_2d(self):
        with pytest.raises(SerializationError):
            FeatureRecord("x", np.ones(4, np.float16), "fp16", 1.0)

    @given(
        m=st.integers(1, 40),
        d=st.integers(1, 40),
        scale=st.floats(1e-6, 10.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, m, d, scale, seed):
        rng = np.random.default_rng(seed)
        record = FeatureRecord("id", rng.random((d, m)).astype(np.float32), "fp32", scale)
        back = deserialize_record(serialize_record(record))
        np.testing.assert_array_equal(back.matrix, record.matrix)
        assert back.scale == pytest.approx(scale)
