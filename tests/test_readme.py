"""README's Library example runs as written and gives the values its
comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["M"].shape == (5, 21)
    assert (scope["k"], scope["lam"], scope["d_lo"], scope["d"]) == (5, 5, 8, 8)
