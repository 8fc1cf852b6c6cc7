"""README's library examples must run as written: a renamed or removed public
name fails here instead of only in a reader's terminal."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README has no python examples"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "(45,)"
