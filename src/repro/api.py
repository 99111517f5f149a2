"""Common codec interface shared by PaSTRI, SZ, ZFP, and the lossless codecs.

Every compressor in this package implements the :class:`Codec` protocol:

``compress(data, error_bound) -> bytes``
    ``data`` is a 1-D float64 array; ``error_bound`` is a point-wise
    *absolute* error bound.  The returned blob is self-describing.

``decompress(blob) -> np.ndarray``
    Inverts :meth:`compress`; the result satisfies
    ``max |data - decompressed| <= error_bound`` for the error-bounded
    codecs and exact equality for the lossless ones.

Codecs may also offer the batch forms ``compress_many(arrays,
error_bound)`` and ``decompress_many(blobs)``; :func:`compress_many` and
:func:`decompress_many` call them, or fall back to one call per item.

A tiny registry maps codec names (``"pastri"``, ``"sz"``, ``"zfp"``,
``"deflate"``, ``"fpc"``) to factories so harness code can sweep codecs by
name.  A built-in codec's module is imported on the first lookup of its
name, so a process loads only the codecs it uses.
"""

from __future__ import annotations

import importlib
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.errors import ParameterError


@runtime_checkable
class Codec(Protocol):
    """Structural interface for all compressors in this package."""

    #: Short human-readable codec name (used in reports and the registry).
    name: str

    def compress(self, data: np.ndarray, error_bound: float) -> bytes:
        """Compress a 1-D float64 array under an absolute error bound."""
        ...

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the array from a blob produced by :meth:`compress`."""
        ...


_REGISTRY: dict[str, Callable[..., Codec]] = {}

#: The built-in codecs: registry name -> the module that registers it when
#: imported.
_BUILTIN_CODECS = {
    "pastri": "repro.core.compressor",
    "sz": "repro.sz.compressor",
    "zfp": "repro.zfp.compressor",
    "deflate": "repro.lossless.deflate",
    "fpc": "repro.lossless.fpc",
}


def _load_builtin(key: str) -> None:
    module = _BUILTIN_CODECS.get(key)
    if module is not None:
        importlib.import_module(module)


def register_codec(name: str, factory: Callable[..., Codec]) -> None:
    """Register a codec factory under ``name`` (lower-case)."""
    key = name.lower()
    # A built-in registering later must not replace this factory.
    _load_builtin(key)
    _REGISTRY[key] = factory


def get_codec(name: str, **kwargs) -> Codec:
    """Instantiate a registered codec by name.

    >>> codec = get_codec("pastri", dims=(6, 6, 6, 6))
    """
    key = name.lower()
    _load_builtin(key)
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise ParameterError(
            f"unknown codec {name!r}; available: {available_codecs()}"
        ) from None
    return factory(**kwargs)


def available_codecs() -> list[str]:
    """Names of all registered codecs, the built-in ones included."""
    for module in _BUILTIN_CODECS.values():
        importlib.import_module(module)
    return sorted(_REGISTRY)


def codec_spec(codec: Codec) -> dict:
    """Serializable description of ``codec``: registry name + constructor kwargs.

    The returned dict is pure JSON (strings, numbers, lists, dicts) so it can
    be embedded in container headers; :func:`codec_from_spec` inverts it.
    Codecs advertise their constructor state through an optional
    ``spec_kwargs()`` method — codecs without one (e.g. ad-hoc test codecs)
    serialize as name-only and must be reconstructible with no arguments.
    """
    kwargs = codec.spec_kwargs() if hasattr(codec, "spec_kwargs") else {}
    return {"name": codec.name, "kwargs": kwargs}


def codec_from_spec(spec: dict) -> Codec:
    """Reconstruct a codec from a :func:`codec_spec` dict.

    >>> codec = codec_from_spec({"name": "pastri", "kwargs": {"dims": [6, 6, 6, 6]}})
    """
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
        raise ParameterError(
            f"codec spec must be a dict with a string 'name', got {spec!r}"
        )
    kwargs = spec.get("kwargs") or {}
    if not isinstance(kwargs, dict):
        raise ParameterError(f"codec spec kwargs must be a dict, got {kwargs!r}")
    if any(not isinstance(k, str) or not k.isidentifier() for k in kwargs):
        raise ParameterError(f"codec spec kwargs have invalid names: {sorted(kwargs)}")
    try:
        return get_codec(spec["name"], **kwargs)
    except TypeError as exc:
        # A corrupt header can hold syntactically valid JSON whose kwargs do
        # not fit the factory signature; surface one library error type.
        raise ParameterError(
            f"codec spec kwargs do not match codec {spec['name']!r}: {exc}"
        ) from exc


def compress_many(codec: Codec, arrays, error_bound: float) -> list[bytes]:
    """``[codec.compress(a, error_bound) for a in arrays]``, blob for blob.

    One ``codec.compress_many`` call when the codec has the batch form
    (PaSTRI fuses the streams into one kernel pass); one call per array
    otherwise.
    """
    many = getattr(codec, "compress_many", None)
    if many is None:
        return [codec.compress(a, error_bound) for a in arrays]
    return many(arrays, error_bound)


def decompress_many(codec: Codec, blobs) -> list[np.ndarray]:
    """``[codec.decompress(b) for b in blobs]``, array for array.

    One ``codec.decompress_many`` call when the codec has the batch form
    (PaSTRI decodes the blobs in one batched pass); one call per blob
    otherwise.  Either way a corrupt blob raises its ``FormatError``.
    """
    many = getattr(codec, "decompress_many", None)
    if many is None:
        return [codec.decompress(b) for b in blobs]
    return many(blobs)


def validate_input(data: np.ndarray) -> np.ndarray:
    """Coerce codec input to a contiguous 1-D float64 array."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise ParameterError("cannot compress an empty array")
    # Fast path: a finite sum proves every element is finite without a
    # boolean temp.  A non-finite sum can also mean legitimate overflow,
    # so only then pay for the exact elementwise check.
    if not np.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise ParameterError("input contains NaN or Inf; codecs require finite data")
    return arr


def validate_error_bound(error_bound: float) -> float:
    """Check that an absolute error bound is a positive finite float."""
    eb = float(error_bound)
    if not np.isfinite(eb) or eb <= 0.0:
        raise ParameterError(f"error bound must be positive and finite, got {eb}")
    return eb


def resolve_error_bound(
    data: np.ndarray, error_bound: float, mode: str = "abs"
) -> float:
    """Convert a user bound to the absolute bound the codecs consume.

    ``mode="abs"`` passes the bound through; ``mode="rel"`` interprets it as
    value-range-relative (SZ's REL mode): ``abs = rel · (max - min)``.
    Quantum chemistry uses absolute bounds (the paper's 1e-10 is an
    absolute integral precision), but general HPC datasets often specify
    relative ones.
    """
    eb = validate_error_bound(error_bound)
    if mode == "abs":
        return eb
    if mode == "rel":
        data = np.asarray(data)
        rng = float(data.max() - data.min())
        if rng == 0.0:
            raise ParameterError("relative bound undefined for constant data")
        return eb * rng
    raise ParameterError(f"error-bound mode must be 'abs' or 'rel', got {mode!r}")
