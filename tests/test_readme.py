"""The README's Python examples run as written: every ```python block, in
order, in one shared namespace, as a reader pasting them into one session
would run them."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_examples_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README has no python examples"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
