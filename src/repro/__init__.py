"""repro — a reproduction of PaSTRI (CLUSTER 2018).

Error-bounded lossy compression for two-electron repulsion integrals,
together with every substrate the paper's evaluation depends on: a
Gaussian-integral engine (GAMESS stand-in), SZ- and ZFP-style baselines,
lossless references, Z-Checker-style metrics, a parallel-I/O model, and the
integral-reuse pipeline.

Quick start::

    import numpy as np
    from repro import PaSTRICompressor, generate_dataset, benzene

    ds = generate_dataset(benzene(), "(dd|dd)", n_blocks=200)
    codec = PaSTRICompressor(config="(dd|dd)")
    blob = codec.compress(ds.data, error_bound=1e-10)
    out = codec.decompress(blob)
    assert np.max(np.abs(out - ds.data)) <= 1e-10
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_names
from repro._version import __version__

if TYPE_CHECKING:
    from repro.api import Codec, available_codecs, get_codec, register_codec
    from repro.core import BlockSpec, BlockType, PaSTRICompressor, ScalingMetric
    from repro.sz import SZCompressor
    from repro.zfp import ZFPCompressor
    from repro.lossless import DeflateCodec, FPCCodec
    from repro.chem import (
        ERIDataset,
        ERIEngine,
        Molecule,
        SyntheticERIModel,
        benzene,
        generate_dataset,
        glutamine,
        molecule_by_name,
        trialanine,
    )
    from repro.metrics import (
        assert_error_bound,
        bitrate,
        compression_ratio,
        max_abs_error,
        psnr,
        rd_curve,
    )
    from repro.pipeline import CompressedERIStore
    from repro.errors import (
        CompressionError,
        ErrorBoundViolation,
        FormatError,
        ParameterError,
        ReproError,
    )

# The public names load on first access: a process that only compresses,
# stores or serves never imports the integral engine or SciPy.  The block
# above binds the same names for static tools; tests/test_imports.py checks
# that the two agree.
__getattr__, __dir__ = lazy_names(
    __name__,
    {
        "repro.api": ("Codec", "available_codecs", "get_codec", "register_codec"),
        "repro.core": ("BlockSpec", "BlockType", "PaSTRICompressor", "ScalingMetric"),
        "repro.sz": ("SZCompressor",),
        "repro.zfp": ("ZFPCompressor",),
        "repro.lossless": ("DeflateCodec", "FPCCodec"),
        "repro.chem": (
            "ERIDataset", "ERIEngine", "Molecule", "SyntheticERIModel", "benzene",
            "generate_dataset", "glutamine", "molecule_by_name", "trialanine",
        ),
        "repro.metrics": (
            "assert_error_bound", "bitrate", "compression_ratio", "max_abs_error",
            "psnr", "rd_curve",
        ),
        "repro.pipeline": ("CompressedERIStore",),
        "repro.errors": (
            "CompressionError", "ErrorBoundViolation", "FormatError", "ParameterError",
            "ReproError",
        ),
    },
    (
        "api", "bitio", "chem", "cli", "cluster", "core", "errors", "harness",
        "lossless", "metrics", "parallel", "pipeline", "service", "streamio",
        "sz", "telemetry", "zfp",
    ),
)

__all__ = [
    "__version__",
    "Codec",
    "available_codecs",
    "get_codec",
    "register_codec",
    "BlockSpec",
    "BlockType",
    "PaSTRICompressor",
    "ScalingMetric",
    "SZCompressor",
    "ZFPCompressor",
    "DeflateCodec",
    "FPCCodec",
    "ERIDataset",
    "ERIEngine",
    "Molecule",
    "SyntheticERIModel",
    "benzene",
    "glutamine",
    "trialanine",
    "molecule_by_name",
    "generate_dataset",
    "assert_error_bound",
    "bitrate",
    "compression_ratio",
    "max_abs_error",
    "psnr",
    "rd_curve",
    "CompressedERIStore",
    "ReproError",
    "CompressionError",
    "FormatError",
    "ParameterError",
    "ErrorBoundViolation",
]
