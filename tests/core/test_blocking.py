"""Unit tests for block/sub-block geometry (repro.core.blocking)."""

import numpy as np
import pytest

from repro.core.blocking import SHELL_CARTESIANS, BlockSpec
from repro.errors import ParameterError


def test_shell_cartesian_counts_match_formula():
    for letter, l in zip("spdfgh", range(6)):
        assert SHELL_CARTESIANS[letter] == (l + 1) * (l + 2) // 2


@pytest.mark.parametrize(
    "config,dims",
    [
        ("(dd|dd)", (6, 6, 6, 6)),
        ("(ff|ff)", (10, 10, 10, 10)),
        ("(fd|ff)", (10, 6, 10, 10)),
        ("pd|df", (3, 6, 6, 10)),
        ("(ss|sp)", (1, 1, 1, 3)),
        ("(DD|DD)", (6, 6, 6, 6)),  # case-insensitive
    ],
)
def test_from_config_parses_shell_letters(config, dims):
    assert BlockSpec.from_config(config).dims == dims


@pytest.mark.parametrize("bad", ["", "(dd|d)", "xd|dd", "(dd,dd)", "dddd"])
def test_from_config_rejects_malformed(bad):
    with pytest.raises(ParameterError):
        BlockSpec.from_config(bad)


def test_geometry_of_fdff_matches_paper_example():
    # Paper §IV: (fd|ff) block = 10*6*10*10 = 6000 points, 60 sub-blocks of 100.
    spec = BlockSpec.from_config("(fd|ff)")
    assert spec.block_size == 6000
    assert spec.num_sb == 60
    assert spec.sb_size == 100


def test_config_rendering_roundtrip():
    assert BlockSpec.from_config("(dd|df)").config == "(dd|df)"


def test_reshape_is_a_view():
    spec = BlockSpec((2, 2, 2, 2))
    data = np.arange(16.0)
    view = spec.reshape(data)
    assert view.shape == (4, 4)
    view[0, 0] = -1
    assert data[0] == -1


def test_rejects_nonpositive_dims():
    with pytest.raises(ParameterError):
        BlockSpec((0, 1, 1, 1))
    with pytest.raises(ParameterError):
        BlockSpec((1, 1, 1))  # type: ignore[arg-type]
