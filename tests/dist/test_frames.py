"""Frame codec: pickle-5 out-of-band roundtrips and framing errors."""

import numpy as np
import pytest

from repro.net.codec import _U32, pack_frame, unpack_frame


class TestRoundtrip:
    def test_plain_objects(self):
        obj = ("computed", 3, {"stats": [1, 2.5, None], "ok": True})
        assert unpack_frame(pack_frame(obj)) == obj

    def test_no_buffers_for_plain_pickle(self):
        blob = pack_frame({"a": 1})
        (n_buffers,) = _U32.unpack_from(blob, 0)
        assert n_buffers == 0

    def test_numpy_out_of_band(self):
        arr = np.arange(1000, dtype=np.float64)
        obj = {"payload": arr, "tag": "bulk"}
        out = unpack_frame(pack_frame(obj))
        assert np.array_equal(out["payload"], arr)
        assert out["tag"] == "bulk"

    def test_numpy_buffers_are_zero_copy_readonly(self):
        # Out-of-band buffers come back as views into the received blob —
        # read-only, which is exactly the message contract (RPC001).
        arr = np.ones(64)
        out = unpack_frame(pack_frame({"a": arr}))
        assert not out["a"].flags.writeable

    def test_nested_mixed(self):
        obj = [
            (7, [np.arange(5), 3.5]),
            (9, [np.zeros(3, dtype=np.int32)]),
        ]
        out = unpack_frame(pack_frame(obj))
        assert out[0][0] == 7
        assert np.array_equal(out[0][1][0], np.arange(5))
        assert np.array_equal(out[1][1][0], np.zeros(3, dtype=np.int32))

    def test_memoryview_input(self):
        blob = pack_frame(("x", 1, None))
        assert unpack_frame(memoryview(blob)) == ("x", 1, None)


class TestFramingErrors:
    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            unpack_frame(pack_frame("ok") + b"junk")

    def test_empty_frame_rejected(self):
        with pytest.raises(Exception):
            unpack_frame(b"")
