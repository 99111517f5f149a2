"""Service protocol fuzzing: malformed frames must never crash or hang.

A live server is booted once per module; each example opens a raw TCP
socket and throws garbage at it — corrupted magics, lying length fields,
truncated payloads, hostile JSON headers.  The contract (docs/SERVICE.md,
"Failure semantics"): every malformed frame yields either a *structured*
error reply (a valid PSRV frame with ``ok: false``) or a clean disconnect.
The server must remain healthy afterwards — a final round-trip on a fresh
connection proves each example left it serving.
"""

import json
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import ProtocolError
from repro.service import ServerConfig, serve_in_thread
from repro.service import protocol

SOCK_TIMEOUT = 10.0


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(
        ServerConfig(codec_kwargs={"dims": [1, 1, 2, 2]}, error_bound=1e-10)
    )
    yield handle
    handle.stop()
    telemetry.disable()
    telemetry.reset()


def _send_raw(server, raw: bytes) -> tuple[dict, bytes] | None:
    """Write raw bytes, read at most one frame back.

    Returns the decoded reply frame, or ``None`` for a clean disconnect
    (EOF / connection reset).  Anything else — a hang (socket timeout), an
    unparseable reply — fails the test.
    """
    with socket.create_connection((server.host, server.port), timeout=SOCK_TIMEOUT) as s:
        s.settimeout(SOCK_TIMEOUT)
        try:
            s.sendall(raw)
            s.shutdown(socket.SHUT_WR)  # EOF after our bytes: reply or hang up
            fh = s.makefile("rb")
            return protocol.read_frame(fh)
        except ConnectionError:
            return None
        except ProtocolError as exc:  # pragma: no cover - would be a server bug
            raise AssertionError(f"server sent an unparseable reply: {exc}")


def _assert_contained(server, raw: bytes) -> None:
    reply = _send_raw(server, raw)
    if reply is not None:
        header, _ = reply
        assert header.get("ok") is False, header
        assert header["error"]["code"] in protocol.ERROR_CODES
    # either way the server must still be alive and serving
    health = _send_raw(server, protocol.encode_request("health", 1))
    assert health is not None and health[0]["ok"] is True


FUZZ_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestMalformedFrames:
    @given(junk=st.binary(min_size=0, max_size=64))
    @FUZZ_SETTINGS
    def test_arbitrary_junk(self, server, junk):
        _assert_contained(server, junk)

    @given(magic=st.binary(min_size=4, max_size=4).filter(lambda b: b != protocol.MAGIC))
    @FUZZ_SETTINGS
    def test_bad_magic(self, server, magic):
        frame = protocol.encode_request("health", 1)
        _assert_contained(server, magic + frame[4:])

    @given(declared=st.integers(min_value=protocol.MAX_HEADER_BYTES + 1,
                                max_value=2**32 - 1))
    @FUZZ_SETTINGS
    def test_oversized_declared_header(self, server, declared):
        _assert_contained(server, protocol.MAGIC + struct.pack("<I", declared))

    @given(declared=st.integers(min_value=1 << 31, max_value=(1 << 63) - 1))
    @FUZZ_SETTINGS
    def test_oversized_declared_payload(self, server, declared):
        header = json.dumps({"op": "compress", "id": 1, "params": {}}).encode()
        raw = (protocol.MAGIC + struct.pack("<I", len(header)) + header
               + struct.pack("<Q", declared))
        _assert_contained(server, raw)

    @given(cut=st.integers(min_value=1, max_value=40))
    @FUZZ_SETTINGS
    def test_truncated_frame(self, server, cut):
        frame = protocol.encode_request("compress", 1, {"eb": 1e-10}, b"\x00" * 32)
        _assert_contained(server, frame[:max(0, len(frame) - cut)])

    @given(header=st.binary(min_size=1, max_size=48))
    @FUZZ_SETTINGS
    def test_garbage_header_bytes(self, server, header):
        raw = (protocol.MAGIC + struct.pack("<I", len(header)) + header
               + struct.pack("<Q", 0))
        _assert_contained(server, raw)

    @given(
        op=st.text(max_size=12),
        params=st.dictionaries(
            st.sampled_from(["eb", "dims", "key", "n", "x"]),
            st.one_of(st.none(), st.integers(-5, 5), st.floats(allow_nan=False),
                      st.text(max_size=5), st.lists(st.integers(0, 4), max_size=5)),
            max_size=4,
        ),
        payload=st.binary(max_size=64),
    )
    @FUZZ_SETTINGS
    def test_valid_frame_hostile_contents(self, server, op, params, payload):
        raw = json.dumps({"op": op, "id": 1, "params": params}).encode()
        frame = (protocol.MAGIC + struct.pack("<I", len(raw)) + raw
                 + struct.pack("<Q", len(payload)) + payload)
        _assert_contained(server, frame)

    @given(short_by=st.integers(min_value=1, max_value=31))
    @FUZZ_SETTINGS
    def test_payload_shorter_than_declared(self, server, short_by):
        raw = json.dumps({"op": "decompress", "id": 1, "params": {}}).encode()
        frame = (protocol.MAGIC + struct.pack("<I", len(raw)) + raw
                 + struct.pack("<Q", 32) + b"\x00" * (32 - short_by))
        _assert_contained(server, frame)


def test_server_survives_the_whole_barrage(server):
    """After every fuzz class above ran, the shared server still round-trips."""
    import numpy as np

    from repro.service import ServiceClient

    data = np.linspace(-1.0, 1.0, 32)
    with ServiceClient(server.host, server.port) as c:
        blob, _ = c.compress(data, 1e-10)
        back = c.decompress(blob)
        assert np.max(np.abs(back - data)) <= 1e-10
        # the happy path copies nothing after the read: each decoded array
        # is a view of the bytes object its reply payload was read into
        for _ in range(5):
            again = c.decompress(blob)
            assert isinstance(again.base, bytes)
            np.testing.assert_array_equal(again, back)
            c.health()
