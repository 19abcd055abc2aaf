"""The shared frame codec: round-trips, malformed input, stream framing.

Satellite contract: the codec is transport-agnostic (both backends import
this one module), rejects
truncated/oversized/trailing-garbage frames with a typed
:class:`FrameError`, and reassembles frames from arbitrary byte-stream
chunk boundaries.
"""

import pickle

import numpy as np
import pytest

from repro.net.codec import (
    MAX_FRAME_BYTES,
    STREAM_HEADER,
    FrameError,
    FrameTooLarge,
    StreamDecoder,
    encode_stream_frame,
    pack_frame,
    unpack_frame,
)


class TestRoundTrip:
    def test_plain_objects(self):
        for obj in (None, 42, "x", ("cmd", 3, {"k": [1, 2]}), b"raw"):
            assert unpack_frame(pack_frame(obj)) == obj

    def test_numpy_out_of_band(self):
        arr = np.arange(1000, dtype=np.float64)
        frame = pack_frame(("deliver", 1, arr))
        # The array bytes must ride out-of-band, not inside the pickle.
        assert len(frame) < 2 * arr.nbytes
        cmd, epoch, back = unpack_frame(frame)
        assert (cmd, epoch) == ("deliver", 1)
        assert np.array_equal(back, arr)

    def test_default_buffers_are_readonly_views(self):
        arr = np.arange(16, dtype=np.int64)
        back = unpack_frame(pack_frame(arr))
        assert not back.flags.writeable  # RPC001: messages are read-only
        with pytest.raises(ValueError):
            back[0] = 99

    def test_copy_yields_writable_private_buffers(self):
        arr = np.arange(16, dtype=np.int64)
        back = unpack_frame(pack_frame(arr), copy=True)
        assert back.flags.writeable
        back[0] = 99  # must not raise
        assert back[0] == 99

    def test_empty_payload_object(self):
        assert unpack_frame(pack_frame(())) == ()

    def test_message_bucket_keeps_int_keys_and_list_boxes(self):
        # A frame is the worker's out_remote bucket itself, and
        # deliver_bucket consumes the unpacked dict as is: no re-int(), no
        # copy of the boxes, the sender's emission order kept.
        bucket = {7: [0.25], 3: [(0, 1, 2), (1, 4)], 11: [1.0, 2.0]}
        back = unpack_frame(pack_frame(bucket))
        assert back == bucket and list(back) == [7, 3, 11]
        for dst, box in back.items():
            assert type(dst) is int and type(box) is list


class TestMalformed:
    def test_header_truncated(self):
        with pytest.raises(FrameError, match="header truncated"):
            unpack_frame(b"\x00\x00")

    def test_pickle_truncated(self):
        frame = pack_frame({"a": list(range(50))})
        with pytest.raises(FrameError, match="truncated"):
            unpack_frame(frame[:-3])

    def test_buffer_truncated(self):
        frame = pack_frame(np.arange(64, dtype=np.int64))
        with pytest.raises(FrameError, match="truncated"):
            unpack_frame(frame[:-1])

    def test_trailing_bytes(self):
        with pytest.raises(FrameError, match="trailing"):
            unpack_frame(pack_frame("x") + b"junk")

    def test_garbage_pickle(self):
        blob = (
            b"\x00\x00\x00\x00"          # n_buffers = 0
            + (8).to_bytes(8, "little")  # pickle_len = 8
            + b"notapkl!"
        )
        with pytest.raises(FrameError, match="does not decode"):
            unpack_frame(blob)

    def test_frame_error_is_a_value_error(self):
        # Pre-existing callers catch ValueError; the typed error must
        # keep satisfying them.
        assert issubclass(FrameError, ValueError)
        assert issubclass(FrameTooLarge, FrameError)


class TestStreamFraming:
    def test_encode_prefixes_the_frame_length(self):
        wire = encode_stream_frame(("ok", 0, None))
        (length,) = STREAM_HEADER.unpack_from(wire, 0)
        assert length == len(wire) - STREAM_HEADER.size
        assert unpack_frame(wire[STREAM_HEADER.size:]) == ("ok", 0, None)

    def test_encode_refuses_oversize(self):
        with pytest.raises(FrameTooLarge):
            encode_stream_frame(b"x" * 100, max_frame=50)

    def test_decoder_single_feed_many_frames(self):
        wire = b"".join(encode_stream_frame(i) for i in range(5))
        dec = StreamDecoder()
        assert dec.feed(wire) == [0, 1, 2, 3, 4]
        assert dec.pending_bytes == 0

    def test_decoder_byte_at_a_time(self):
        msgs = [("compute", 2, np.arange(7)), ("ok", 2, None)]
        wire = b"".join(encode_stream_frame(m) for m in msgs)
        dec = StreamDecoder()
        out = []
        for i in range(len(wire)):
            out.extend(dec.feed(wire[i:i + 1]))
        assert len(out) == 2
        assert out[0][0] == "compute" and np.array_equal(out[0][2], msgs[0][2])
        assert out[1] == ("ok", 2, None)
        assert dec.pending_bytes == 0

    def test_decoder_split_across_header(self):
        wire = encode_stream_frame("hello")
        dec = StreamDecoder()
        assert dec.feed(wire[:3]) == []       # partial header
        assert dec.pending_bytes == 3
        assert dec.feed(wire[3:]) == ["hello"]

    def test_decoder_oversize_raises_before_buffering(self):
        dec = StreamDecoder(max_frame=100)
        with pytest.raises(FrameTooLarge, match="declares"):
            dec.feed(STREAM_HEADER.pack(10**9))
        assert MAX_FRAME_BYTES == 1 << 31  # the default ceiling (2 GiB)


class TestCodecSurface:
    def test_net_package_exports_the_codec(self):
        from repro import net

        assert net.unpack_frame(net.pack_frame("x")) == "x"
        assert net.FrameError is FrameError
        assert issubclass(FrameError, ValueError)

    def test_pickle_protocol_5(self):
        # Out-of-band buffers require protocol 5; the frame pickle must
        # declare it (first opcode: PROTO 5).
        frame = pack_frame("x")
        payload_start = 4 + 8
        assert frame[payload_start] == pickle.PROTO[0]
        assert frame[payload_start + 1] == 5
