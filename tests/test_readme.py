"""README's "Library use" example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block of README's section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_library_use_block_runs():
    namespace = {}
    exec(compile(python_block("Library use"), str(README), "exec"), namespace)
    fused, records = namespace["fused"], namespace["records"]
    assert (fused.width, fused.height, fused.band_count) == (128, 128, 3)
    assert {r.method for r in records} == {"SF"}
    assert len(records) == 7 * 4  # seven metrics, three bands and the avg row
