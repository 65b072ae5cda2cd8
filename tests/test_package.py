"""The package root: its exports and the README quick start."""

import re
from pathlib import Path

import isoframe
from isoframe import forms, frames, kscalar, phi

README = Path(__file__).resolve().parent.parent / "README.md"


def test_root_exports_the_modules_public_names():
    expected = set(forms.__all__) | set(frames.__all__) | set(kscalar.__all__) | set(phi.__all__)
    assert set(isoframe.__all__) == expected
    assert len(isoframe.__all__) == len(expected)
    for name in isoframe.__all__:
        assert hasattr(isoframe, name), name


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
