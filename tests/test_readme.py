"""README's Python examples run as written, so an API change that breaks one fails here."""
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, block in enumerate(blocks):
            exec(compile(block, f"{README.name} python block {i + 1}", "exec"), namespace)
