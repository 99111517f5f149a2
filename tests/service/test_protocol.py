"""Wire-format unit tests: framing, caps, error mapping, array payloads."""

import asyncio
import io
import socket

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    ProtocolError,
    RemoteError,
    ServerBusyError,
)
from repro.service import protocol


def _roundtrip(frame_bytes):
    return protocol.read_frame(io.BytesIO(frame_bytes))


class TestFraming:
    def test_request_roundtrip(self):
        frame = protocol.encode_request("compress", 7, {"eb": 1e-10}, b"\x01\x02")
        header, payload = _roundtrip(frame)
        assert header == {"op": "compress", "id": 7, "params": {"eb": 1e-10}}
        assert payload == b"\x01\x02"

    def test_response_roundtrip(self):
        frame = protocol.encode_response(3, {"n": 4}, b"busy bytes")
        header, payload = _roundtrip(frame)
        assert header["ok"] is True and header["id"] == 3
        assert payload == b"busy bytes"

    def test_empty_payload(self):
        header, payload = _roundtrip(protocol.encode_request("health", 1))
        assert header["op"] == "health"
        assert payload == b""

    def test_clean_eof_returns_none(self):
        assert protocol.read_frame(io.BytesIO(b"")) is None

    def test_two_frames_sequential(self):
        buf = io.BytesIO(
            protocol.encode_request("health", 1) + protocol.encode_request("health", 2)
        )
        assert protocol.read_frame(buf)[0]["id"] == 1
        assert protocol.read_frame(buf)[0]["id"] == 2
        assert protocol.read_frame(buf) is None

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            _roundtrip(b"JUNK" + b"\x00" * 16)

    def test_short_prefix(self):
        with pytest.raises(ProtocolError, match="short prefix"):
            _roundtrip(protocol.MAGIC + b"\x01")

    def test_truncated_header(self):
        frame = protocol.encode_request("health", 1)
        with pytest.raises(ProtocolError):
            _roundtrip(frame[: len(protocol.MAGIC) + 4 + 3])

    def test_truncated_payload(self):
        frame = protocol.encode_request("compress", 1, {}, b"x" * 100)
        with pytest.raises(ProtocolError, match="short payload"):
            _roundtrip(frame[:-10])

    def test_oversized_declared_header(self):
        raw = protocol.MAGIC + (protocol.MAX_HEADER_BYTES + 1).to_bytes(4, "little")
        with pytest.raises(ProtocolError, match="header length"):
            _roundtrip(raw)

    def test_oversized_declared_payload_rejected_before_alloc(self):
        frame = bytearray(protocol.encode_request("compress", 1, {}, b"abc"))
        # patch the payload length field to an absurd value
        hdr_len = int.from_bytes(frame[4:8], "little")
        off = 8 + hdr_len
        frame[off:off + 8] = (1 << 62).to_bytes(8, "little")
        with pytest.raises(ProtocolError, match="payload length"):
            protocol.read_frame(io.BytesIO(bytes(frame)))

    def test_payload_cap_configurable(self):
        frame = protocol.encode_request("compress", 1, {}, b"x" * 64)
        with pytest.raises(ProtocolError, match="exceeds cap 16"):
            protocol.read_frame(io.BytesIO(frame), max_payload=16)

    def test_header_not_json_object(self):
        raw = b'["not", "an", "object"]'
        frame = protocol.MAGIC + len(raw).to_bytes(4, "little") + raw
        frame += (0).to_bytes(8, "little")
        with pytest.raises(ProtocolError, match="JSON object"):
            _roundtrip(frame)

    def test_header_invalid_utf8(self):
        raw = b"\xff\xfe{}"
        frame = protocol.MAGIC + len(raw).to_bytes(4, "little") + raw
        frame += (0).to_bytes(8, "little")
        with pytest.raises(ProtocolError, match="unparseable"):
            _roundtrip(frame)


def _with_header(raw: bytes) -> bytes:
    """A frame whose header block holds ``raw`` and no payload."""
    return protocol.MAGIC + len(raw).to_bytes(4, "little") + raw + bytes(8)


def _with_payload_length(frame: bytes, plen: int) -> bytes:
    """``frame`` with its declared payload length patched to ``plen``."""
    off = 8 + int.from_bytes(frame[4:8], "little")
    return frame[:off] + plen.to_bytes(8, "little") + frame[off + 8:]


_HEALTH = protocol.encode_request("health", 1)
_PUT = protocol.encode_request("store.put", 3, {"key": "k"}, b"x" * 100)

#: case -> (wire bytes, the frames read before EOF or the error message)
FRAMING_CASES = {
    "clean EOF": (b"", []),
    "two frames": (_HEALTH + _PUT, [
        ({"op": "health", "id": 1, "params": {}}, b""),
        ({"op": "store.put", "id": 3, "params": {"key": "k"}}, b"x" * 100),
    ]),
    "bad magic": (b"JUNK" + _HEALTH[4:], "bad frame magic b'JUNK'"),
    "short prefix": (protocol.MAGIC + b"\x01",
                     "connection closed mid-frame (short prefix)"),
    "short header": (_HEALTH[:-3], "connection closed mid-frame (short header)"),
    "short payload": (_PUT[:-10], "connection closed mid-frame (short payload)"),
    "header over cap": (
        protocol.MAGIC + (protocol.MAX_HEADER_BYTES + 1).to_bytes(4, "little"),
        f"declared header length {protocol.MAX_HEADER_BYTES + 1} exceeds cap",
    ),
    "payload over cap": (
        _with_payload_length(_PUT, protocol.DEFAULT_MAX_PAYLOAD + 1),
        f"declared payload length {protocol.DEFAULT_MAX_PAYLOAD + 1} exceeds cap "
        f"{protocol.DEFAULT_MAX_PAYLOAD}",
    ),
    "non-object header": (_with_header(b'["not", "an", "object"]'),
                          "frame header must be a JSON object"),
    "non-UTF-8 header": (
        _with_header(b"\xff\xfe{}"),
        "unparseable frame header: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte",
    ),
}


def _read_socket_file(raw: bytes) -> list:
    """Every frame :func:`protocol.read_frame` reads from ``raw`` sent
    over a socket, up to EOF."""
    ours, peer = socket.socketpair()
    with ours, peer:
        peer.sendall(raw)
        peer.shutdown(socket.SHUT_WR)
        with ours.makefile("rb") as fh:
            return list(iter(lambda: protocol.read_frame(fh), None))


def _read_stream_reader(raw: bytes) -> list:
    """Every frame :func:`protocol.read_frame_async` reads from ``raw``
    fed to an :class:`asyncio.StreamReader`, up to EOF."""
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        frames = []
        while (frame := await protocol.read_frame_async(reader)) is not None:
            frames.append(frame)
        return frames

    return asyncio.run(main())


class TestFramingTable:
    """The blocking and the asyncio reader agree on every framing case:
    the same frames, or a :class:`ProtocolError` with the same message."""

    @pytest.mark.parametrize("read", [_read_socket_file, _read_stream_reader],
                             ids=["read_frame", "read_frame_async"])
    @pytest.mark.parametrize("case", list(FRAMING_CASES))
    def test_reader_matches_the_table(self, case, read):
        raw, expected = FRAMING_CASES[case]
        if isinstance(expected, list):
            assert read(raw) == expected
        else:
            with pytest.raises(ProtocolError) as err:
                read(raw)
            assert str(err.value) == expected


class TestErrorMapping:
    def test_success_passes_through(self):
        assert protocol.raise_for_error({"ok": True, "result": {"n": 2}}) == {"n": 2}

    @pytest.mark.parametrize(
        "code,exc",
        [
            ("BUSY", ServerBusyError),
            ("SHUTTING_DOWN", ServerBusyError),
            ("DEADLINE", DeadlineExceeded),
            ("BAD_REQUEST", ParameterError),
            ("NOT_FOUND", KeyError),
            ("PROTOCOL", ProtocolError),
            ("INTERNAL", RemoteError),
        ],
    )
    def test_codes_map_to_typed_exceptions(self, code, exc):
        header, _ = _roundtrip(protocol.encode_error(1, code, "boom"))
        with pytest.raises(exc):
            protocol.raise_for_error(header)

    def test_busy_carries_retry_hint(self):
        header, _ = _roundtrip(
            protocol.encode_error(1, "BUSY", "full", retry_after_s=0.75)
        )
        with pytest.raises(ServerBusyError) as e:
            protocol.raise_for_error(header)
        assert e.value.retry_after_s == 0.75

    def test_unknown_code_rejected_at_encode(self):
        with pytest.raises(ParameterError):
            protocol.encode_error(1, "TEAPOT", "short and stout")


class TestArrayPayload:
    def test_roundtrip(self):
        data = np.linspace(-1, 1, 37)
        payload, n = protocol.array_to_payload(data)
        assert n == 37 and len(payload) == 37 * 8
        np.testing.assert_array_equal(protocol.payload_to_array(payload, n), data)

    def test_2d_input_flattens(self):
        payload, n = protocol.array_to_payload(np.ones((3, 4)))
        assert n == 12

    def test_ragged_length_rejected(self):
        with pytest.raises(ProtocolError, match="multiple of 8"):
            protocol.payload_to_array(b"\x00" * 13)

    def test_count_mismatch_rejected(self):
        payload, _ = protocol.array_to_payload(np.zeros(4))
        with pytest.raises(ProtocolError, match="header says 5"):
            protocol.payload_to_array(payload, 5)

    def test_result_is_writable_copy(self):
        payload, n = protocol.array_to_payload(np.zeros(4))
        out = protocol.payload_to_array(payload, n)
        out[0] = 1.0  # frombuffer views are read-only; we need a real array
