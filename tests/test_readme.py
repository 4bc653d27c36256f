"""The README's Python blocks run as written, so no documented name goes
missing unnoticed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
