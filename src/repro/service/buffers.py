"""Reusable payload buffers for the PSRV wire path.

The u64-length payloads on both ends of the protocol used to be rebuilt
per frame: the client allocated a fresh ``bytes`` for every response, and
the server concatenated header + payload into one throwaway frame.  The
classes here keep those bytes in place instead:

* :class:`PayloadBuffer` — one growable ``bytearray`` a connection owns
  for its lifetime.  ``recv`` fills it with ``socket.recv_into`` and
  returns a :class:`memoryview` window, so steady-state traffic does no
  per-request allocation at all (growth is geometric, so a connection
  reaches its high-water mark and stays there).

``service.buffers.*`` telemetry records the effect: ``reuses`` vs
``grows`` on the buffers, and ``bytes_borrowed`` (served from a view or a
reused buffer) vs ``bytes_copied`` (had to materialize) on the payload
path, mirroring the ``store.shm.*`` convention in
:mod:`repro.parallel.shm`.
"""

from __future__ import annotations

import socket

from repro.telemetry import REGISTRY as _METRICS
from repro.telemetry import state as _tstate

__all__ = ["PayloadBuffer", "count_borrowed", "count_copied"]


def _count(name: str, n: int = 1) -> None:
    if _tstate.enabled:
        _METRICS.counter(name).add(n)


def count_borrowed(nbytes: int) -> None:
    """Record payload bytes served zero-copy (a view or a reused buffer)."""
    _count("service.buffers.bytes_borrowed", nbytes)


def count_copied(nbytes: int) -> None:
    """Record payload bytes that had to be materialized."""
    _count("service.buffers.bytes_copied", nbytes)


class PayloadBuffer:
    """A growable receive buffer reused across frames on one connection.

    ``ensure(n)`` grows the backing ``bytearray`` geometrically (never
    shrinks), so after warm-up every frame up to the high-water mark is
    served with zero allocation; ``recv(sock, n)`` fills the first ``n``
    bytes via ``recv_into`` and returns a read-write :class:`memoryview`
    window that stays valid until the next ``ensure``/``recv``.
    """

    __slots__ = ("_buf",)

    def __init__(self, initial: int = 64 << 10) -> None:
        self._buf = bytearray(max(int(initial), 1))

    @property
    def capacity(self) -> int:
        return len(self._buf)

    def ensure(self, n: int) -> None:
        if n > len(self._buf):
            new = len(self._buf)
            while new < n:
                new *= 2
            self._buf = bytearray(new)
            _count("service.buffers.grows")
        else:
            _count("service.buffers.reuses")

    def view(self, n: int) -> memoryview:
        """A window over the first ``n`` bytes (``ensure`` first)."""
        return memoryview(self._buf)[:n]

    def recv(self, sock: socket.socket, n: int) -> memoryview:
        """Fill the buffer with exactly ``n`` bytes from ``sock``.

        Raises :class:`ConnectionError` on EOF mid-read.  The returned
        view aliases the buffer — consume or copy it before the next call.
        """
        self.ensure(n)
        mv = memoryview(self._buf)
        got = 0
        while got < n:
            r = sock.recv_into(mv[got:n], n - got)
            if r == 0:
                raise ConnectionResetError(
                    f"connection closed after {got} of {n} payload bytes"
                )
            got += r
        count_borrowed(n)
        return mv[:n]
