"""README's "Library use" example runs as written against the package,
and its manifest example loads."""

import json
import re
from pathlib import Path

from panfuse.cli import load_manifest
from panfuse.fusion import METHOD_NAMES
from panfuse.synthetic import SyntheticSpec, generate_pair

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ```language block of README's section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S)[1]


def test_library_use_block_runs():
    namespace = {}
    exec(compile(code_block("Library use", "python"), str(README), "exec"), namespace)
    fused, records = namespace["fused"], namespace["records"]
    assert (fused.width, fused.height, fused.band_count) == (128, 128, 3)
    assert {r.method for r in records} == {"SF"}
    assert len(records) == 7 * 4  # seven metrics, three bands and the avg row


def test_manifest_block_loads(tmp_path):
    """The example with its two input paths pointed at a generated pair."""
    payload = json.loads(code_block("Command line", "json"))
    ms_path, pan_path, _ = generate_pair(SyntheticSpec(seed=0, width=8, height=8), tmp_path)
    payload["pairs"][0].update(ms_path=ms_path.name, pan_path=pan_path.name)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(payload), encoding="utf-8")
    manifest = load_manifest(manifest_path)
    assert manifest.methods == METHOD_NAMES
    assert manifest.output_dir == tmp_path / "out"
    assert manifest.pairs[0].label() == "urban-1 QB-MS / QB-PAN (2.8 m / 0.7 m) test block A"
