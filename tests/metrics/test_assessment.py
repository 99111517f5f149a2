"""Tests for the Z-Checker-style assessment battery (repro.metrics.assessment)."""

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.metrics.assessment import (
    Assessment,
    assess,
    autocorrelation,
    error_histogram,
    pearson,
)
from repro.sz import SZCompressor
from tests.conftest import make_patterned_stream

EB = 1e-10


def test_autocorrelation_of_white_noise_near_zero(rng):
    x = rng.standard_normal(50_000)
    assert abs(autocorrelation(x)) < 0.02


def test_autocorrelation_of_smooth_signal_near_one():
    x = np.sin(np.linspace(0, 3, 10_000))
    assert autocorrelation(x) > 0.99


def test_autocorrelation_edge_cases():
    assert autocorrelation(np.zeros(10)) == 0.0
    assert autocorrelation(np.array([1.0])) == 0.0


def test_pearson_perfect_and_anti():
    a = np.arange(100.0)
    assert pearson(a, a) == pytest.approx(1.0)
    assert pearson(a, -a) == pytest.approx(-1.0)


def test_pearson_constant_signals():
    assert pearson(np.ones(5), np.ones(5)) == 1.0


def test_assess_pastri_battery(rng):
    data = make_patterned_stream(rng, n_blocks=10)
    a = assess(PaSTRICompressor(dims=(6, 6, 6, 6)), data, EB)
    assert isinstance(a, Assessment)
    assert a.bound_satisfied
    assert a.max_abs_error <= EB
    assert a.mean_abs_error <= a.max_abs_error
    assert a.rmse <= a.max_abs_error
    assert a.bitrate == pytest.approx(64.0 / a.ratio)
    assert a.pearson_correlation > 0.999999
    assert a.max_rel_to_range < 1e-2
    assert len(a.rows()) == 11


def test_assess_error_mean_unbiased(rng):
    """Round-to-nearest quantization leaves no systematic bias."""
    data = make_patterned_stream(rng, n_blocks=20)
    a = assess(PaSTRICompressor(dims=(6, 6, 6, 6)), data, EB)
    assert abs(a.error_mean) < 0.2 * a.error_std + 1e-14


def test_error_histogram_within_bound(rng):
    data = make_patterned_stream(rng, n_blocks=10)
    counts, edges = error_histogram(SZCompressor(), data, EB)
    assert counts.sum() == data.size
    assert edges[0] == -EB and edges[-1] == EB


def test_assess_works_for_all_registered_codecs(rng):
    from repro.api import available_codecs, get_codec

    data = make_patterned_stream(rng, n_blocks=3, dims=(2, 2, 3, 3))
    for name in available_codecs():
        kwargs = {"dims": (2, 2, 3, 3)} if name == "pastri" else {}
        a = assess(get_codec(name, **kwargs), data, EB)
        assert a.bound_satisfied
