"""Every demo script imports cleanly, so a renamed or deleted package name
cannot break one unnoticed. CI runs each ``main`` end to end."""

from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_present():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_without_running(path):
    spec = spec_from_file_location(f"demo_{path.stem}", path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
