"""MP2 correlation energy — the paper's post-Hartree–Fock use case.

§I: "post-Hartree-Fock methods need to assemble molecular integrals from
ERIs.  Compressing and storing the latter can lead to considerable speedup
of the calculations."  This module performs that assembly: the AO ERI
tensor (direct or decompressed from a :class:`CompressedERIStore`) is
transformed to the MO basis and closed-shell MP2 is evaluated:

.. math::

    E^{(2)} = \\sum_{ijab} \\frac{(ia|jb)\\,[2 (ia|jb) - (ib|ja)]}
                                 {\\varepsilon_i + \\varepsilon_j
                                  - \\varepsilon_a - \\varepsilon_b}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.oneelectron import build_one_electron_matrices
from repro.chem.scf import RHFSolver, SCFResult
from repro.errors import ChemistryError
from repro.telemetry import trace


@dataclass(frozen=True)
class MP2Result:
    """SCF reference plus the second-order correlation correction."""

    scf_energy: float
    correlation_energy: float
    n_occ: int
    n_virtual: int

    @property
    def total_energy(self) -> float:
        return self.scf_energy + self.correlation_energy


def ao_to_mo(eri_ao: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Four-index transformation, O(N^5) via four quarter-transforms."""
    with trace("mp2.ao_to_mo", nbf=C.shape[0]):
        tmp = np.einsum("pqrs,pi->iqrs", eri_ao, C, optimize=True)
        tmp = np.einsum("iqrs,qj->ijrs", tmp, C, optimize=True)
        tmp = np.einsum("ijrs,rk->ijks", tmp, C, optimize=True)
        return np.einsum("ijks,sl->ijkl", tmp, C, optimize=True)


def mp2_energy(solver: RHFSolver, scf: SCFResult | None = None) -> MP2Result:
    """Closed-shell MP2 on top of a converged RHF reference.

    Integrals flow through the solver's (optionally compressed) quartet
    source, so this is the paper's store-then-assemble workflow end to end.
    """
    if scf is None:
        scf = solver.run()
    if not scf.converged:
        raise ChemistryError("MP2 needs a converged SCF reference")

    with trace("mp2.energy"):
        return _mp2_energy(solver, scf)


def _mp2_energy(solver: RHFSolver, scf: SCFResult) -> MP2Result:
    from scipy import linalg

    # Recover the MO coefficients for the converged density: diagonalise
    # the converged Fock matrix once more.
    S, T, V = build_one_electron_matrices(solver.basis)
    eri_ao = solver.eri_tensor()
    D = scf.density
    J = np.einsum("pqrs,rs->pq", eri_ao, D)
    K = np.einsum("prqs,rs->pq", eri_ao, D)
    F = T + V + 2.0 * J - K
    eps, C = linalg.eigh(F, S)

    n_occ = solver.n_occ
    n_bf = C.shape[0]
    n_virt = n_bf - n_occ
    if n_virt == 0:
        raise ChemistryError("no virtual orbitals: MP2 correlation is undefined")

    mo = ao_to_mo(eri_ao, C)  # chemists' notation (pq|rs)
    occ = slice(0, n_occ)
    virt = slice(n_occ, n_bf)
    iajb = mo[occ, virt, occ, virt]  # (ia|jb)
    e_i = eps[occ]
    e_a = eps[virt]
    denom = (
        e_i[:, None, None, None]
        - e_a[None, :, None, None]
        + e_i[None, None, :, None]
        - e_a[None, None, None, :]
    )
    e2 = float(np.sum(iajb * (2.0 * iajb - iajb.swapaxes(1, 3)) / denom))
    return MP2Result(
        scf_energy=scf.energy,
        correlation_energy=e2,
        n_occ=n_occ,
        n_virtual=n_virt,
    )
