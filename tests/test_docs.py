"""Documentation freshness: README code blocks must actually run, and
DESIGN.md's system inventory must match the source tree."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "repro"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


@pytest.fixture(scope="module")
def readme_text():
    return README.read_text()


def test_readme_exists_and_mentions_paper(readme_text):
    assert "PaSTRI" in readme_text
    assert "CLUSTER 2018" in readme_text


def test_readme_quickstart_block_runs(readme_text):
    blocks = python_blocks(readme_text)
    assert blocks, "README lost its python examples"
    quickstart = blocks[0]
    # shrink the dataset so the doc test stays fast
    quickstart = quickstart.replace("n_blocks=200", "n_blocks=10")
    namespace: dict = {}
    exec(compile(quickstart, "README-quickstart", "exec"), namespace)
    assert "codec" in namespace


def test_readme_codec_registry_block_runs(readme_text):
    blocks = python_blocks(readme_text)
    assert len(blocks) >= 2
    from repro import benzene, generate_dataset

    ds = generate_dataset(benzene(), "(dd|dd)", n_blocks=5)
    namespace = {"ds": ds, "np": np}
    exec(compile(blocks[1], "README-registry", "exec"), namespace)
    assert isinstance(namespace["blob"], bytes)


def test_readme_store_block_runs(readme_text, tmp_path, monkeypatch):
    blocks = python_blocks(readme_text)
    assert len(blocks) >= 3
    store_block = blocks[2]
    assert "ContainerBackend" in store_block
    # run inside tmp_path so the example's spill/snapshot files are cleaned up
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    eri_blocks = [rng.standard_normal(6**4) * 1e-7 for _ in range(4)]
    namespace = {"blocks": eri_blocks}
    exec(compile(store_block, "README-store", "exec"), namespace)
    revived = namespace["store"]
    assert len(revived) == len(eri_blocks)
    for q, block in enumerate(eri_blocks):
        assert np.max(np.abs(revived.get(q) - block)) <= 1e-10


def test_docs_reference_real_files():
    root = README.parent
    for rel in (
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/FORMAT.md",
        "docs/ALGORITHM.md",
        "docs/OBSERVABILITY.md",
        "docs/SERVICE.md",
    ):
        assert (root / rel).exists(), rel


def test_readme_example_scripts_exist(readme_text):
    for match in re.findall(r"`examples/(\w+\.py)`", readme_text):
        assert (README.parent / "examples" / match).exists(), match


def inventory_rows() -> dict[str, str]:
    """DESIGN.md §3 as ``{dotted name: key-modules cell}``."""
    text = (README.parent / "DESIGN.md").read_text()
    section = text.split("## 3. System inventory", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `repro\.(\w+)` \|.*\| (.*) \|$", section, flags=re.M)
    assert rows, "DESIGN.md lost its system inventory table"
    return dict(rows)


def test_design_inventory_matches_source_tree():
    rows = inventory_rows()
    for name, modules in rows.items():
        package = SRC / name
        if package.is_dir():
            for module in re.findall(r"`(\w+\.py)`", modules):
                assert (package / module).exists(), f"repro.{name}: no {module}"
        else:
            assert (SRC / f"{name}.py").exists(), f"repro.{name} does not exist"
    packages = {p.parent.name for p in SRC.glob("*/__init__.py")}
    assert packages <= rows.keys(), f"no inventory row for {sorted(packages - rows.keys())}"
