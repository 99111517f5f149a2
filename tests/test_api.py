"""Tests for the codec registry and validation helpers (repro.api)."""

import numpy as np
import pytest

from repro import api
from repro.errors import ParameterError


def test_all_five_codecs_registered():
    assert set(api.available_codecs()) >= {"pastri", "sz", "zfp", "deflate", "fpc"}


def test_get_codec_passes_kwargs():
    codec = api.get_codec("pastri", config="(dd|dd)")
    assert codec.spec.dims == (6, 6, 6, 6)


def test_get_codec_case_insensitive():
    assert api.get_codec("SZ").name == "sz"


def test_unknown_codec_rejected():
    with pytest.raises(ParameterError):
        api.get_codec("lzma")


def test_every_registered_codec_satisfies_protocol(rng):
    data = rng.standard_normal(2000) * 1e-7
    for name in api.available_codecs():
        kwargs = {"dims": (2, 2, 2, 2)} if name == "pastri" else {}
        codec = api.get_codec(name, **kwargs)
        assert isinstance(codec, api.Codec)
        blob = codec.compress(data, 1e-10)
        out = codec.decompress(blob)
        assert np.max(np.abs(out - data)) <= 1e-10


def test_validate_input_coerces_and_checks():
    out = api.validate_input([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.shape == (4,)
    with pytest.raises(ParameterError):
        api.validate_input(np.array([]))
    with pytest.raises(ParameterError):
        api.validate_input(np.array([1.0, np.inf]))


def test_validate_error_bound():
    assert api.validate_error_bound(1e-10) == 1e-10
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ParameterError):
            api.validate_error_bound(bad)


def test_custom_codec_registration():
    class Echo:
        name = "echo"

        def compress(self, data, error_bound):
            return data.tobytes()

        def decompress(self, blob):
            return np.frombuffer(blob, dtype=np.float64)

    api.register_codec("echo-test", lambda: Echo())
    codec = api.get_codec("echo-test")
    data = np.arange(4.0)
    assert np.array_equal(codec.decompress(codec.compress(data, 0)), data)


# ---------------------------------------------------------------------------
# codec specs (the container header's self-description)


#: Constructor kwargs (small geometries) for every shippable codec.  The
#: completeness test below fails the build if a codec is registered
#: without an entry here, so new codecs cannot silently skip the
#: self-description round-trip.
SPEC_CODECS = {
    "pastri": {"dims": (2, 2, 3, 3)},
    "sz": {},
    "zfp": {},
    "deflate": {},
    "fpc": {},
}


def test_spec_codec_table_is_complete():
    registered = {n for n in api.available_codecs() if not n.endswith("-test")}
    assert registered == set(SPEC_CODECS)


@pytest.mark.parametrize("name", sorted(SPEC_CODECS))
def test_codec_spec_roundtrip(name, rng):
    """spec -> JSON -> codec_from_spec rebuilds a behaviourally equal codec."""
    import json

    codec = api.get_codec(name, **SPEC_CODECS[name])
    spec = api.codec_spec(codec)
    assert spec["name"] == name
    assert isinstance(spec["kwargs"], dict)
    wire_spec = json.loads(json.dumps(spec))  # survives the container header
    rebuilt = api.codec_from_spec(wire_spec)
    assert rebuilt.name == name
    assert api.codec_spec(rebuilt) == spec
    # behavioural equality: identical bytes out, identical decode
    data = rng.standard_normal(36 * 4 + 5) * 1e-7
    blob = codec.compress(data, 1e-10)
    assert rebuilt.compress(data, 1e-10) == blob
    np.testing.assert_array_equal(rebuilt.decompress(blob), codec.decompress(blob))


@pytest.mark.parametrize("flag", [True, False])
def test_zfp_spec_with_the_dropped_vectorized_key_still_loads(flag, rng):
    """Containers written while ZFP had a ``vectorized`` option carry it in
    their codec spec; both values wrote the same bytes and still load."""
    codec = api.codec_from_spec({"name": "zfp", "kwargs": {"vectorized": flag}})
    assert api.codec_spec(codec) == {"name": "zfp", "kwargs": {}}
    data = rng.standard_normal(64) * 1e-7
    assert codec.compress(data, 1e-10) == api.get_codec("zfp").compress(data, 1e-10)


def test_codec_spec_is_json_serializable():
    import json

    codec = api.get_codec("pastri", dims=(6, 6, 6, 6), metric="aar", tree_id=2)
    spec = json.loads(json.dumps(api.codec_spec(codec)))
    rebuilt = api.codec_from_spec(spec)
    assert rebuilt.spec.dims == (6, 6, 6, 6)
    assert rebuilt.metric.value == "aar"
    assert rebuilt.tree_id == 2


def test_codec_spec_without_kwargs_method():
    class Echo:
        name = "echo"

        def compress(self, data, error_bound):
            return data.tobytes()

        def decompress(self, blob):
            return np.frombuffer(blob, dtype=np.float64)

    assert api.codec_spec(Echo()) == {"name": "echo", "kwargs": {}}


def test_codec_from_spec_validates_shape():
    for bad in (None, [], "pastri", {}, {"kwargs": {}}, {"name": 3, "kwargs": {}},
                {"name": "sz", "kwargs": [1, 2]}):
        with pytest.raises(ParameterError):
            api.codec_from_spec(bad)
    with pytest.raises(ParameterError):
        api.codec_from_spec({"name": "no-such-codec", "kwargs": {}})
