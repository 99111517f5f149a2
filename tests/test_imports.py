"""Cold start: what a fresh interpreter loads, and the public surface it sees.

Every check runs in its own ``python -c``: the suite has imported the whole
package long before these tests run, so an in-process check would pass
with a lazy name missing or an eager import back in place.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api

SRC = Path(__file__).resolve().parent.parent / "src"

#: what a process imports to compress, store or serve
SERVING_MODULES = (
    "repro.core.compressor",
    "repro.pipeline",
    "repro.streamio",
    "repro.parallel.pool",
    "repro.service.server",
    "repro.cluster.gateway",
    "repro.cli",
)
#: the integral engine, which only data generation and SCF need
ENGINE_MODULES = ("repro.chem.eri", "repro.chem.boys", "repro.chem.scf", "repro.chem.mp2")
BUILTIN_CODECS = ["deflate", "fpc", "lowrank", "pastri", "sz", "zfp"]


def run_python(code: str, *args: str, cwd=None) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_loaded_by(module: str) -> list[str]:
    out = run_python(f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")
    return json.loads(out)


def is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


# -- the import guard -----------------------------------------------------------------


@pytest.mark.parametrize("module", SERVING_MODULES)
def test_serving_module_loads_no_engine_and_no_scipy(module):
    loaded = modules_loaded_by(module)
    assert [m for m in loaded if is_scipy(m) or m in ENGINE_MODULES] == []


def test_synthetic_model_loads_no_scipy():
    assert [m for m in modules_loaded_by("repro.chem.synthetic") if is_scipy(m)] == []


# -- the public surface in a fresh interpreter ----------------------------------------


def test_every_public_name_resolves():
    run_python(
        """
import repro
assert repro.chem.benzene().name == "benzene"
for package in ("repro", "repro.chem"):
    names = {}
    exec(f"from {package} import *", names)
    module = __import__(package, fromlist=["__all__"])
    missing = [n for n in module.__all__ if n not in names]
    assert not missing, (package, missing)
    assert set(module.__all__) <= set(dir(module))
"""
    )


def test_available_codecs_imports_the_builtins():
    out = run_python(
        """
import json, sys
from repro import api
before = [m for m in api._BUILTIN_CODECS.values() if m in sys.modules]
print(json.dumps([before, api.available_codecs()]))
"""
    )
    assert json.loads(out) == [[], BUILTIN_CODECS]


def test_codec_specs_revive_before_their_module_is_imported():
    """A spawned pool worker or a container reader revives a codec from its
    spec alone, before anything imported the codec's module."""
    specs = [
        api.codec_spec(api.get_codec(name, **({"config": "(dd|dd)"}
                                             if name in ("pastri", "lowrank") else {})))
        for name in BUILTIN_CODECS
    ]
    out = run_python(
        """
import json, sys
from repro import api
assert not [m for m in api._BUILTIN_CODECS.values() if m in sys.modules]
print(json.dumps([api.codec_spec(api.codec_from_spec(s)) for s in json.loads(sys.argv[1])]))
""",
        json.dumps(specs),
    )
    assert json.loads(out) == specs


def test_unknown_codec_error_names_every_builtin():
    out = run_python(
        """
from repro import api
from repro.errors import ParameterError
try:
    api.get_codec("nope")
except ParameterError as exc:
    print(exc)
"""
    )
    assert all(repr(name) in out for name in BUILTIN_CODECS), out


def test_registration_before_the_builtin_loads_is_kept():
    out = run_python(
        """
from repro import api
api.register_codec("sz", lambda: "mine")
import repro.sz
print(api.get_codec("sz"))
"""
    )
    assert out.strip() == "mine"


def test_info_knows_the_codec_a_container_was_packed_with(tmp_path):
    data = np.random.default_rng(0).standard_normal(6**4 * 4) * 1e-7
    np.save(tmp_path / "in.npy", data)
    cli = "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"
    run_python(cli, "pack", "in.npy", "out.pstf", "--codec", "sz", "--eb", "1e-10",
               "--config", "(dd|dd)", cwd=tmp_path)
    out = run_python(cli, "info", "out.pstf", cwd=tmp_path)
    assert "codec       : sz" in out
    assert "no codec of this name" not in out


# -- what static tools see ------------------------------------------------------------


@pytest.mark.parametrize("package", ["repro", "repro/chem"])
def test_type_checking_imports_match_the_lazy_table(package):
    """The ``if TYPE_CHECKING:`` imports bind, for linters and type
    checkers, exactly the names the lazy table resolves at run time."""
    tree = ast.parse((SRC / package / "__init__.py").read_text())
    static, lazy, exported = {}, {}, set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for imp in node.body:
                static.update((alias.name, imp.module) for alias in imp.names)
        elif not isinstance(node, ast.Assign):
            continue
        elif ast.unparse(node.targets[0]) == "(__getattr__, __dir__)":
            for module, names in ast.literal_eval(node.value.args[1]).items():
                lazy.update((name, module) for name in names)
        elif ast.unparse(node.targets[0]) == "__all__":
            exported = set(ast.literal_eval(node.value)) - {"__version__"}
    assert static == lazy
    assert set(lazy) == exported
