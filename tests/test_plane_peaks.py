"""The per-method peak printer in ``tools/plane_peaks.py``, at 32x32."""

import importlib.util
from pathlib import Path

from panfuse.fusion import METHOD_NAMES

TOOL = Path(__file__).parents[1] / "tools" / "plane_peaks.py"


def test_prints_one_line_per_method_and_synthesize(capsys):
    spec = importlib.util.spec_from_file_location("plane_peaks", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [*METHOD_NAMES, "synthesize", "evaluate_all"]
    assert all(float(line.split()[0]) > 0 for line in lines)
