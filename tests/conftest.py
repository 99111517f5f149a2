"""Shared fixtures: RNG, synthetic patterned streams, tiny real ERI data."""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest
from hypothesis import settings

from repro.chem import ERIEngine, benzene, generate_dataset
from repro.chem.basis import BasisSet, Shell
from repro.chem.molecule import Atom, Molecule
from repro.core.blocking import BlockSpec

# Every property test draws the same examples on every run (derandomize
# also turns off the example database), so the suite's result never
# depends on a seed.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_patterned_stream(
    rng: np.random.Generator,
    n_blocks: int = 20,
    dims: tuple[int, int, int, int] = (6, 6, 6, 6),
    amp: float = 1e-7,
    rel_dev: float = 1e-3,
    zero_blocks: int = 2,
) -> np.ndarray:
    """ERI-like stream: outer-product blocks with small deviations."""
    spec = BlockSpec(dims)
    M, L = spec.num_sb, spec.sb_size
    bra = rng.standard_normal((n_blocks, M, 1))
    ket = rng.standard_normal((n_blocks, 1, L))
    blocks = amp * bra * ket * (1.0 + rel_dev * rng.standard_normal((n_blocks, M, L)))
    blocks[:zero_blocks] = 0.0
    return blocks.reshape(-1)


def sixteen_mib_blob(eb: float = 1e-10) -> bytes:
    """A PaSTRI blob that decodes to 16 MiB (8192 zero blocks of dims (4,4,4,4))."""
    from repro.core import PaSTRICompressor

    return PaSTRICompressor(dims=(4, 4, 4, 4)).compress(np.zeros(8192 * 256), eb)


def stalled_peer(host: str, port: int, frame: bytes, endpoint) -> socket.socket:
    """Send ``frame`` from a socket with a 4 KiB receive buffer that never
    reads; returns it once ``endpoint`` has a reply backed up in its
    transport.  The caller closes the socket."""
    peer = socket.socket()
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    peer.connect((host, port))
    peer.sendall(frame)
    deadline = time.monotonic() + 30
    while not any(w.transport.get_write_buffer_size() for w in list(endpoint._conns)):
        assert time.monotonic() < deadline, "the reply never backed up"
        time.sleep(0.01)
    return peer


def make_class_block(
    kind: str, rng: np.random.Generator, dims: tuple[int, int, int, int]
) -> np.ndarray:
    """One ``(num_sb, sb_size)`` block that PaSTRI codes as ``kind`` at
    EB >= 1e-12: ``zero``, ``raw`` (incompressible), ``no_ecq`` (patterned
    with EC_b,max <= 1: every value is far inside the bound), ``dense``
    ECQ, or ``sparse`` ECQ (a patterned block plus a few large point
    deviations).
    """
    spec = BlockSpec(dims)
    M, L = spec.num_sb, spec.sb_size
    if kind == "zero":
        return np.zeros((M, L))
    if kind == "no_ecq":
        return 1e-13 * rng.uniform(-1.0, 1.0, (M, L))
    if kind == "raw":
        return rng.standard_normal((M, L)) * 1e6  # incompressible at tight EB
    base = 1e-7 * rng.standard_normal((M, 1)) * rng.standard_normal((1, L))
    if kind == "dense":
        return base * (1.0 + 1e-3 * rng.standard_normal((M, L)))
    block = base.copy()
    k = rng.integers(1, 4)
    flat = block.reshape(-1)
    flat[rng.choice(flat.size, size=k, replace=False)] += 1e-7 * rng.standard_normal(k)
    return block


@pytest.fixture
def patterned_stream(rng) -> np.ndarray:
    return make_patterned_stream(rng)


@pytest.fixture(scope="session")
def tiny_eri_dataset():
    """A small real (dd|dd) dataset from the integral engine (cached)."""
    return generate_dataset(benzene(), "(dd|dd)", n_blocks=30, seed=3)


@pytest.fixture(scope="session")
def small_shell_basis():
    """Four single-primitive shells (s, p, d, f) on spread-out centers."""
    mol = Molecule("probe", (Atom("H", (0, 0, 0)), Atom("H", (0, 0, 2.0))))
    shells = (
        Shell(0, (0.0, 0.0, 0.0), (0.9,), (1.0,)),
        Shell(1, (0.6, -0.4, 0.8), (1.1,), (1.0,)),
        Shell(2, (1.2, 0.5, -0.3), (0.8,), (1.0,)),
        Shell(3, (-0.7, 1.0, 0.4), (0.7,), (1.0,)),
    )
    return BasisSet(mol, shells)


@pytest.fixture(scope="session")
def eri_engine(small_shell_basis):
    return ERIEngine(small_shell_basis)
