"""Quantum-chemistry substrate (replaces GAMESS for data generation).

A from-scratch McMurchie–Davidson Gaussian-integral engine:

* :mod:`repro.chem.molecule` / :mod:`repro.chem.molecules` — geometries,
  including the paper's three benchmark molecules (benzene, glutamine,
  tri-alanine).
* :mod:`repro.chem.basis` — contracted Cartesian Gaussian shells in GAMESS
  component order.
* :mod:`repro.chem.boys` — the Boys function :math:`F_m(T)`.
* :mod:`repro.chem.hermite` — Hermite expansion (E) and Hermite Coulomb (R)
  recursions.
* :mod:`repro.chem.eri` — shell-quartet two-electron repulsion integrals.
* :mod:`repro.chem.screening` — Cauchy–Schwarz screening.
* :mod:`repro.chem.dataset` — :class:`ERIDataset` streams in GAMESS block
  order, the compressors' input.
* :mod:`repro.chem.synthetic` — asymptotic-model generator (paper Eq. 2–3)
  for arbitrarily large calibrated streams.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_names

if TYPE_CHECKING:
    from repro.chem.molecule import Atom, Molecule
    from repro.chem.molecules import benzene, glutamine, trialanine, molecule_by_name
    from repro.chem.basis import Shell, BasisSet, polarization_basis
    from repro.chem.eri import ERIEngine
    from repro.chem.dataset import ERIDataset, generate_dataset
    from repro.chem.synthetic import SyntheticERIModel
    from repro.chem.basis_sets import sto3g_basis, water
    from repro.chem.oneelectron import build_one_electron_matrices
    from repro.chem.scf import RHFSolver, SCFResult
    from repro.chem.classdump import class_dump, compress_class_dump
    from repro.chem.mp2 import MP2Result, mp2_energy

# Names load on first access: reading a molecule loads no integral engine,
# and SciPy loads only once an integral or an SCF is computed.
__getattr__, __dir__ = lazy_names(
    __name__,
    {
        "repro.chem.molecule": ("Atom", "Molecule"),
        "repro.chem.molecules": ("benzene", "glutamine", "trialanine", "molecule_by_name"),
        "repro.chem.basis": ("Shell", "BasisSet", "polarization_basis"),
        "repro.chem.eri": ("ERIEngine",),
        "repro.chem.dataset": ("ERIDataset", "generate_dataset"),
        "repro.chem.synthetic": ("SyntheticERIModel",),
        "repro.chem.basis_sets": ("sto3g_basis", "water"),
        "repro.chem.oneelectron": ("build_one_electron_matrices",),
        "repro.chem.scf": ("RHFSolver", "SCFResult"),
        "repro.chem.classdump": ("class_dump", "compress_class_dump"),
        "repro.chem.mp2": ("MP2Result", "mp2_energy"),
    },
    (
        "basis", "basis_sets", "boys", "classdump", "constants", "dataset", "eri",
        "hermite", "molecule", "molecules", "mp2", "oneelectron", "scf", "screening",
        "synthetic",
    ),
)

__all__ = [
    "Atom",
    "Molecule",
    "benzene",
    "glutamine",
    "trialanine",
    "molecule_by_name",
    "Shell",
    "BasisSet",
    "polarization_basis",
    "ERIEngine",
    "ERIDataset",
    "generate_dataset",
    "SyntheticERIModel",
    "sto3g_basis",
    "water",
    "build_one_electron_matrices",
    "RHFSolver",
    "SCFResult",
    "class_dump",
    "compress_class_dump",
    "MP2Result",
    "mp2_energy",
]
