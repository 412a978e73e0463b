"""The README's library example runs as printed."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    value, bound = out.getvalue().splitlines()
    assert 0.0 < float(value) < 1.0
    t, _, construction_t = bound.split()
    assert 0 <= int(t) <= int(construction_t)
