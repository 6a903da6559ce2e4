"""Every Python block in the README runs.

The blocks are executed in order in one namespace, as a reader would
paste them into one session, so the docs cannot name a function the
package no longer has.
"""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = _python_blocks()
    assert blocks, "the README has no Python block"
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
