"""The public surface: every exported name resolves, removed names stay gone, and the README's examples run."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import lqrt

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _modules():
    # lqrt and each of its modules; __main__ runs the command line on import
    names = [m.name for m in pkgutil.iter_modules(lqrt.__path__) if not m.name.startswith("__")]
    return [lqrt] + [importlib.import_module(f"lqrt.{name}") for name in names]


def _removed_section() -> str:
    # the README's "Removed names" subsection, up to the next heading
    return re.search(r"^### Removed names\n(.*?)(?=^#)", README, re.M | re.S).group(1)


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    assert not [name for name in module.__all__ if not hasattr(module, name)]


def test_removed_names_are_gone():
    section = _removed_section()
    removed = re.findall(r"^- `(\w+)\(", section, re.M)
    assert len(removed) >= 8
    for module in (lqrt, lqrt.ratio_test, lqrt.mlqe, lqrt.lqmath):
        assert not [name for name in removed if hasattr(module, name)], module.__name__
    # the README names them only in that list
    elsewhere = README.replace(section, "")
    assert not [name for name in removed if name in elsewhere]


@pytest.mark.slow
def test_readme_examples_run():
    # every python block of the README, in order, in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
