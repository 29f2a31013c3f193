"""Bytes of a whole run at an odd size, where summation order shows.

One 500x372 synthetic pair (MS 125x93) goes through ``panfuse batch``
with all seven methods, then ``panfuse report``. Every file the run
writes is checked against its SHA-256 below. At 500x372 numpy's pairwise
sums split rows unevenly, so a change to the order of a reduction, or to
the rounding of a moment, moves bits here that a 512x512 run keeps.

The digests were recorded on a commit whose outputs are known to be
right. A change that moves a byte on purpose records them again and
says so.
"""

import hashlib
import json

from panfuse.cli import main
from panfuse.fusion import METHOD_NAMES

EXPECTED = {
    "charts/CSA_edge.svg": "1ca0faa95bc953f7ca589ed3b081e3424b182b14a2de8046f04a6e2343f38bf3",
    "charts/CSA_homog.svg": "6c1f683bd20e7c83ff4aac46af91876f89111e95e9e0df21a14ae8339907a48e",
    "charts/DI.svg": "c2435c70da20f195ebf97fab2d6b5bc414ef8a187be3359008c80e4096ae94ec",
    "charts/FCC.svg": "2d62d74b00b3a173f20fa99cf03439a00e45ac544925eac12d57b25f5c0be97d",
    "charts/HPDI.svg": "98805589f00293199af766745345b6dbd861a41e1b6b407e2e79f8f65db36114",
    "charts/NRMSE.svg": "47061048e9e448efcdb63b40583799f4f83b389e981ec3c04b8ae6d89e7f3f12",
    "charts/SNR.svg": "c6f4c74c96b7ffe48e5a371d117b0e8cf3d7bbcc8830134d9d4b702abe6d4392",
    "fused/metrics.csv": "f2a403e09d6b7b6b458cb15cf0e845f02f7a55c414a70aaf3569967d5afe5506",
    "fused/odd/EF.ppm": "eca5797fbbc34eac1fb2dcd0e66f6451546dcc19b81db30c2620384a4bc07fe1",
    "fused/odd/HFA.ppm": "6f29926d3b503b3363f6137e10589b45d51c35a52e149f87ad25892deb0f58fc",
    "fused/odd/HFM.ppm": "7818d3218fb938ee6ce8609f2c61c7a02d5375f070c41a2583755911eab38a58",
    "fused/odd/HSV.ppm": "305aeaa5a07b7ebe142591e47a27dfa3b01f971c589688bf3ce416f8ba6e05c7",
    "fused/odd/IHS.ppm": "ad8457fa7a6857c2c0a1acb8b829b6d8bf63eb1f36bd5d0f9fa2bbe69eae9627",
    "fused/odd/RVS.ppm": "25c0b72c594171d35b0b0d7a218f40c92d751a63c5b86f788be75acaeba4a614",
    "fused/odd/SF.ppm": "2cd4253c8fa57d02695c4fe7236d0ccdaf7d42823d12d05189bc3d055084cc8a",
    "pair/ms.ppm": "3389a4349b7f5c70b25d2c76a2b98727807948366c887e5e1b13f5d0e53d8981",
    "pair/pan.pgm": "3228eb0c4e78c62b26b7f02b5f85a4aa2201455e480d900aee4da6a93d86e039",
    "pair/reference.ppm": "2f1b4c8914e08e389d0e84f8f1c39eed1188bf8ffce99c373cb8af1d46b93be9",
}


def run_digests(run_dir) -> dict:
    """SHA-256 of every file one gen-synthetic, batch and report run writes."""
    assert main(["gen-synthetic", "--seed", "0", "--width", "500", "--height", "372",
                 "--out", str(run_dir / "pair")]) == 0
    manifest = run_dir / "manifest.json"
    manifest.write_text(json.dumps({
        "pairs": [{"pair_id": "odd", "ms_path": "pair/ms.ppm", "pan_path": "pair/pan.pgm"}],
        "methods": list(METHOD_NAMES),
        "output_dir": "fused",
    }), encoding="utf-8")
    assert main(["batch", "--manifest", str(manifest)]) == 0
    csv = run_dir / "fused" / "metrics.csv"
    assert main(["report", "--csv", str(csv), "--out", str(run_dir / "charts")]) == 0
    return {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p != manifest
    }


def test_odd_size_run_keeps_its_bytes(tmp_path):
    got = run_digests(tmp_path)
    assert sorted(got) == sorted(EXPECTED)
    assert [name for name in EXPECTED if got[name] != EXPECTED[name]] == []
