"""The multiplexed asyncio PSRV connection (``repro.service.client.Connection``).

Every call on a :class:`Connection` waits on its own future, keyed by
request id, and one reader task resolves the futures as replies land.  A
cancelled call therefore only drops its future: when its late reply
arrives, the reader discards it, and the next call on the same connection
still gets its own, correctly correlated frame.  These tests pin that with
a slow echo server, and pin what ``close()`` does to a call in flight.
"""

import asyncio

import pytest

from repro.service import protocol
from repro.service.client import Connection

MAX_PAYLOAD = 1 << 20


async def _echo_handler(reader, writer):
    """Replies to each request after ``params['delay']`` seconds."""
    try:
        while True:
            frame = await protocol.read_frame_async(reader, MAX_PAYLOAD)
            if frame is None:
                break
            header, _payload = frame
            params = header.get("params") or {}
            await asyncio.sleep(float(params.get("delay", 0)))
            writer.write(
                protocol.encode_response(header.get("id"), {"echo": params})
            )
            await writer.drain()
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()


def _run_against_echo(scenario):
    async def run():
        server = await asyncio.start_server(_echo_handler, "127.0.0.1", 0)
        conn = Connection("127.0.0.1", server.sockets[0].getsockname()[1], MAX_PAYLOAD)
        try:
            return await scenario(conn)
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(run())


class TestCancelledCall:
    def test_next_call_after_cancellation_gets_a_clean_frame(self):
        async def scenario(conn):
            header, _ = await conn.call("echo", {"delay": 0, "tag": 1})
            assert header["ok"]
            writer = conn._writer
            # cancel mid-response-wait: the server still writes the reply
            # for this request id onto the connection later
            task = asyncio.ensure_future(conn.call("echo", {"delay": 0.3, "tag": 2}))
            await asyncio.sleep(0.1)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await asyncio.sleep(0.4)  # the late tag-2 reply has landed
            header, _ = await conn.call("echo", {"delay": 0, "tag": 3})
            assert header["ok"]
            assert header["result"]["echo"]["tag"] == 3
            assert conn._writer is writer  # same connection, still in step

        _run_against_echo(scenario)

    def test_close_fails_the_call_in_flight_and_a_later_call_reconnects(self):
        async def scenario(conn):
            await conn.call("echo", {"delay": 0})
            reader_task, writer = conn._reader_task, conn._writer
            call = asyncio.ensure_future(conn.call("echo", {"delay": 0.3}))
            await asyncio.sleep(0.1)
            await conn.close()
            with pytest.raises(ConnectionError):
                await call
            assert reader_task.done()
            assert conn._reader_task is None
            header, _ = await conn.call("echo", {"delay": 0, "tag": 4})
            assert header["result"]["echo"]["tag"] == 4
            assert conn._writer is not writer  # a fresh connection

        _run_against_echo(scenario)
