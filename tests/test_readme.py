"""The README's documented Python code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    tour = README.read_text().split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["spec"].kmax == 150
    assert len(scope["recon"].values) > 0
