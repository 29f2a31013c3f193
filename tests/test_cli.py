"""CLI subcommands, exit codes, manifest validation, batch determinism."""

import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from panfuse import cli
from panfuse.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, load_manifest, main
from panfuse.fusion import METHOD_NAMES, fuse
from panfuse.metrics import METRIC_ORDER, evaluate_all
from panfuse.raster import MultiBandImage, Raster, dn8, load_pnm, save_pnm
from panfuse.report import CSV_HEADER, read_csv
from panfuse.synthetic import SyntheticSpec, generate_pair

ROWS_PER_PRODUCT = len(METRIC_ORDER) * 4  # 3 bands + the avg row
# More digits than int() converts: its limit is 4,300 since Python 3.11
# and 3.10.7, and 0 lifts it.
TOO_MANY_DIGITS = pytest.param(
    "9" * 5000,
    id="5000-digits",
    marks=pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="int() converts 5,000 digits",
    ),
)


@pytest.fixture()
def pair_dir(tmp_path):
    generate_pair(SyntheticSpec(seed=1, width=16, height=16, scale_factor=4), tmp_path)
    return tmp_path


def write_manifest(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def batch_manifest(tmp_path, n_pairs=2, methods=("SF", "IHS")):
    pairs = []
    for k in range(n_pairs):
        d = tmp_path / f"data{k}"
        generate_pair(SyntheticSpec(seed=k, width=16, height=16, scale_factor=4), d)
        pairs.append(
            {"pair_id": f"p{k}", "ms_path": f"data{k}/ms.ppm", "pan_path": f"data{k}/pan.pgm"}
        )
    payload = {"pairs": pairs, "methods": list(methods), "output_dir": "out"}
    return write_manifest(tmp_path / "manifest.json", payload), payload


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_one_parser_serves_every_call(self, capsys):
        """The parser is built once per process, and a call after another
        call's error parses as if it were the first."""
        assert cli.build_parser() is cli.build_parser()
        outcomes = [(main(argv), capsys.readouterr()) for argv in (["fuse"], ["x"], ["fuse"])]
        assert outcomes[0] == outcomes[2]
        assert outcomes[0][0] == EXIT_USAGE and "--ms" in outcomes[0][1].err

    def test_unknown_method_names_the_valid_ones(self, pair_dir, capsys):
        code = main(
            [
                "fuse",
                "--ms", str(pair_dir / "ms.ppm"),
                "--pan", str(pair_dir / "pan.pgm"),
                "--method", "WT",
                "--out", str(pair_dir / "f.ppm"),
            ]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        for name in ("SF", "IHS", "HSV", "HFA", "HFM", "RVS", "EF"):
            assert name in err

    def test_entrypoint_exits_with_mains_code(self, tmp_path, capsys, monkeypatch):
        """The console script's function reads ``sys.argv`` and exits with
        ``main``'s code."""
        missing = tmp_path / "missing.json"
        monkeypatch.setattr(sys, "argv", ["panfuse", "batch", "--manifest", str(missing)])
        with pytest.raises(SystemExit) as e:
            cli.entrypoint()
        assert e.value.code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot read manifest: ")


class TestFuseCommand:
    def test_writes_pan_sized_product(self, pair_dir, capsys):
        out = pair_dir / "fused.ppm"
        code = main(
            [
                "fuse",
                "--ms", str(pair_dir / "ms.ppm"),
                "--pan", str(pair_dir / "pan.pgm"),
                "--method", "sf",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        product = load_pnm(out)
        assert (product.width, product.height, product.band_count) == (16, 16, 3)
        assert "SF" in capsys.readouterr().out

    def test_resamples_coarse_ms_like_the_library(self, pair_dir, capsys):
        ms = load_pnm(pair_dir / "ms.ppm")
        coarse = MultiBandImage(tuple(Raster(b.samples[::4, ::4].copy()) for b in ms.bands))
        save_pnm(coarse, pair_dir / "coarse.ppm")
        out = pair_dir / "fused.ppm"
        code = main(
            [
                "fuse",
                "--ms", str(pair_dir / "coarse.ppm"),
                "--pan", str(pair_dir / "pan.pgm"),
                "--method", "hfa",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "4x4 ms" in capsys.readouterr().out
        want = fuse("HFA", load_pnm(pair_dir / "coarse.ppm"), load_pnm(pair_dir / "pan.pgm"))
        got = load_pnm(out)
        for a, b in zip(got.bands, want.bands):
            assert np.array_equal(a.samples, b.samples)

    def test_missing_input_is_runtime_failure(self, tmp_path, capsys):
        code = main(
            [
                "fuse",
                "--ms", str(tmp_path / "nope.ppm"),
                "--pan", str(tmp_path / "nope.pgm"),
                "--method", "sf",
                "--out", str(tmp_path / "f.ppm"),
            ]
        )
        assert code == EXIT_FAILURE
        assert "error:" in capsys.readouterr().err

    def test_multiband_pan_rejected(self, pair_dir, capsys):
        code = main(
            [
                "fuse",
                "--ms", str(pair_dir / "ms.ppm"),
                "--pan", str(pair_dir / "ms.ppm"),
                "--method", "sf",
                "--out", str(pair_dir / "f.ppm"),
            ]
        )
        assert code == EXIT_FAILURE
        assert "single-band" in capsys.readouterr().err


class TestEvaluateCommand:
    def evaluate(self, pair_dir, fused, csv, capsys):
        code = main(
            [
                "evaluate",
                "--ms", str(pair_dir / "ms.ppm"),
                "--pan", str(pair_dir / "pan.pgm"),
                "--fused", str(fused),
                "--pair-id", "demo",
                "--method", "sf",
                "--csv", str(csv),
            ]
        )
        capsys.readouterr()
        return code

    def test_perfect_spectral_rows_for_ms_as_fused(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        assert self.evaluate(pair_dir, pair_dir / "ms.ppm", csv, capsys) == EXIT_OK
        records = read_csv(csv)
        assert len(records) == ROWS_PER_PRODUCT
        by_key = {(r.band, r.metric): r.value for r in records}
        for band in ("1", "2", "3"):
            assert by_key[(band, "DI")] == 0.0
            assert by_key[(band, "NRMSE")] == 0.0
            assert by_key[(band, "SNR")] == float("inf")

    def test_append_keeps_single_header(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        self.evaluate(pair_dir, pair_dir / "ms.ppm", csv, capsys)
        self.evaluate(pair_dir, pair_dir / "ms.ppm", csv, capsys)
        text = csv.read_text(encoding="utf-8")
        assert text.count("pair_id,method,band,metric,value,excluded_pixels") == 1
        assert len(read_csv(csv)) == 2 * ROWS_PER_PRODUCT

    def test_append_to_a_file_that_is_not_a_metric_table(self, pair_dir, capsys, monkeypatch):
        """Exit 2 with read_csv's message; the file is left as it is, and
        nothing is scored."""
        csv = pair_dir / "m.csv"
        csv.write_bytes(b"name,score\nalice,3\n")
        monkeypatch.setattr(cli, "evaluate_all", None)
        code = main(
            [
                "evaluate",
                "--ms", str(pair_dir / "ms.ppm"),
                "--pan", str(pair_dir / "pan.pgm"),
                "--fused", str(pair_dir / "ms.ppm"),
                "--pair-id", "demo",
                "--method", "sf",
                "--csv", str(csv),
            ]
        )
        assert code == EXIT_USAGE
        with pytest.raises(ValueError, match=r"^line 1: bad header \['name', 'score'\]") as e:
            read_csv(csv)
        assert capsys.readouterr().err == f"error: {e.value}\n"
        assert csv.read_bytes() == b"name,score\nalice,3\n"

    def test_append_after_a_header_with_no_final_newline(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        header = ",".join(CSV_HEADER)
        csv.write_text(header, encoding="utf-8")
        assert self.evaluate(pair_dir, pair_dir / "ms.ppm", csv, capsys) == EXIT_OK
        assert csv.read_text(encoding="utf-8").startswith(header + "\ndemo,SF,1,")
        assert len(read_csv(csv)) == ROWS_PER_PRODUCT

    def test_csa_percentile_is_not_an_option(self, pair_dir, capsys):
        # CSA's edge class is fixed at the 90th percentile; even the value
        # it has is refused, so no CSA row is made at another threshold.
        csv = pair_dir / "m.csv"
        code = main(
            [
                "evaluate",
                "--ms", str(pair_dir / "ms.ppm"),
                "--pan", str(pair_dir / "pan.pgm"),
                "--fused", str(pair_dir / "ms.ppm"),
                "--pair-id", "demo",
                "--method", "sf",
                "--csv", str(csv),
                "--csa-percentile", "90",
            ]
        )
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --csa-percentile 90" in capsys.readouterr().err
        assert not csv.exists()

    # os.fsdecode gives an undecodable command-line byte as a lone surrogate.
    # LF, a C1 CSI and a line separator would reach stdout in the log line;
    # a no-break space is no control character, but not printable either.
    @pytest.mark.parametrize(
        "pair_id",
        [
            "a\x01b", "\x1f", "x\x0b", os.fsdecode(b"a\xffb"), "a\nb", "c\x9b2Jd", "a\u2028b",
            "a\u00a0b",
        ],
    )
    def test_control_character_in_pair_id_is_usage_error(self, pair_dir, capsys, pair_id):
        csv = pair_dir / "m.csv"
        code = main(
            [
                "evaluate",
                "--ms", str(pair_dir / "ms.ppm"),
                "--pan", str(pair_dir / "pan.pgm"),
                "--fused", str(pair_dir / "ms.ppm"),
                "--pair-id", pair_id,
                "--method", "sf",
                "--csv", str(csv),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: --pair-id must be printable: no control, format or separator "
            f"character but the space, and no undecodable byte, got {pair_id!r}\n"
        )
        assert not csv.exists()

    def test_dim_mismatch_fails(self, pair_dir, capsys):
        bad = pair_dir / "bad.ppm"
        save_pnm(
            MultiBandImage(tuple(Raster(np.zeros((4, 4))) for _ in range(3))), bad
        )
        assert self.evaluate(pair_dir, bad, pair_dir / "m.csv", capsys) == EXIT_FAILURE


class TestGenSyntheticCommand:
    def test_writes_files(self, tmp_path, capsys):
        code = main(
            [
                "gen-synthetic",
                "--seed", "3",
                "--width", "16",
                "--height", "16",
                "--out", str(tmp_path / "d"),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for name in ("ms.ppm", "pan.pgm", "reference.ppm"):
            assert (tmp_path / "d" / name).exists()
            assert name in out

    def test_determinism_across_invocations(self, tmp_path, capsys):
        for sub in ("a", "b"):
            main(
                [
                    "gen-synthetic",
                    "--seed", "5",
                    "--width", "16",
                    "--height", "16",
                    "--out", str(tmp_path / sub),
                ]
            )
        capsys.readouterr()
        for name in ("ms.ppm", "pan.pgm", "reference.ppm"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(
            ["gen-synthetic", "--seed", "-1", "--width", "8", "--height", "8", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_zero_width_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g"
        code = main(
            ["gen-synthetic", "--seed", "0", "--width", "0", "--height", "4", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: dimensions must be >= 1, got 0x4\n"
        assert not out.exists()

    def test_invalid_spec_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "gen-synthetic",
                "--seed", "1",
                "--width", "65",
                "--height", "64",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_USAGE
        assert "divisible" in capsys.readouterr().err

    def test_scale_and_passes_reach_the_spec(self, tmp_path, capsys):
        argv = ["gen-synthetic", "--seed", "3", "--width", "24", "--height", "12"]
        code = main([*argv, "--scale", "2", "--passes", "0", "--out", str(tmp_path / "a")])
        assert code == EXIT_OK
        capsys.readouterr()
        for path in generate_pair(SyntheticSpec(3, 24, 12, 2, 0), tmp_path / "b"):
            assert (tmp_path / "a" / path.name).read_bytes() == path.read_bytes()

    def test_scale_that_does_not_divide_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "a"
        code = main(
            [
                "gen-synthetic",
                "--seed", "3",
                "--width", "24",
                "--height", "12",
                "--scale", "5",
                "--out", str(out),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: width and height (24x12) must be divisible by scale_factor 5\n"
        )
        assert not out.exists()

    def test_image_too_big_to_allocate_is_one_error_line(self, tmp_path, capsys):
        """400000x400000 float64 samples are 1.16 TiB. With the address
        space capped far below that, numpy refuses the request before
        allocating anything, however the host overcommits memory."""
        resource = pytest.importorskip("resource")
        out = tmp_path / "d"
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 64 << 30
        if soft != resource.RLIM_INFINITY:
            cap = min(cap, soft)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            code = main(
                [
                    "gen-synthetic",
                    "--seed", "1",
                    "--width", "400000",
                    "--height", "400000",
                    "--out", str(out),
                ]
            )
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and "1.16 TiB" in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestManifestValidation:
    def error(self, tmp_path, payload, capsys):
        manifest = write_manifest(tmp_path / "manifest.json", payload)
        code = main(["batch", "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        return err

    @pytest.mark.parametrize(
        "content",
        [b"{nope", b'{"pairs": "\xff"}', b"[" * 100000],
        ids=["syntax", "not-utf-8", "nested-too-deep"],
    )
    def test_not_json(self, tmp_path, capsys, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(content)
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: manifest is not valid JSON")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "content, key",
        [
            (
                '{"pairs": [{"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm"}],'
                ' "methods": ["SF"], "methods": ["EF"], "output_dir": "out"}',
                "methods",
            ),
            (
                '{"pairs": [{"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm",'
                ' "pan_path": "ms.ppm"}], "methods": ["SF"], "output_dir": "out"}',
                "pan_path",
            ),
        ],
        ids=["top-level", "pair-entry"],
    )
    def test_repeated_key(self, pair_dir, capsys, content, key):
        manifest = pair_dir / "manifest.json"
        manifest.write_text(content, encoding="utf-8")
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: manifest repeats key {key!r}\n"
        assert not (pair_dir / "out").exists()

    def test_missing_key(self, tmp_path, capsys):
        err = self.error(tmp_path, {"pairs": [], "methods": ["SF"]}, capsys)
        assert "output_dir" in err

    def test_unknown_top_level_key(self, pair_dir, capsys):
        payload = {
            "pairs": [{"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm"}],
            "methods": ["SF"],
            "output_dir": "out",
            "threads": 4,
        }
        err = self.error(pair_dir, payload, capsys)
        assert "unknown manifest keys: threads" in err

    def test_duplicate_pair_id(self, pair_dir, capsys):
        entry = {"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm"}
        payload = {"pairs": [entry, dict(entry)], "methods": ["SF"], "output_dir": "out"}
        err = self.error(pair_dir, payload, capsys)
        assert "duplicate pair_id" in err

    def test_unknown_method(self, pair_dir, capsys):
        payload = {
            "pairs": [{"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm"}],
            "methods": ["SF", "WT"],
            "output_dir": "out",
        }
        err = self.error(pair_dir, payload, capsys)
        assert "unknown method" in err

    def test_duplicate_method(self, pair_dir, capsys):
        payload = {
            "pairs": [{"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm"}],
            "methods": ["SF", "sf"],
            "output_dir": "out",
        }
        err = self.error(pair_dir, payload, capsys)
        assert "duplicate method" in err

    def test_missing_input_file_rejected_before_work(self, tmp_path, capsys):
        payload = {
            "pairs": [{"pair_id": "p", "ms_path": "absent.ppm", "pan_path": "absent.pgm"}],
            "methods": ["SF"],
            "output_dir": "out",
        }
        err = self.error(tmp_path, payload, capsys)
        assert "not found" in err
        assert not (tmp_path / "out").exists()

    def test_csa_percentile_is_an_unknown_key(self, pair_dir, capsys):
        payload = {
            "pairs": [{"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm"}],
            "methods": ["SF"],
            "output_dir": "out",
            "csa_percentile": 90.0,
        }
        err = self.error(pair_dir, payload, capsys)
        assert err == "error: unknown manifest keys: csa_percentile\n"
        assert not (pair_dir / "out").exists()

    def test_inverted_resolutions_rejected(self, pair_dir, capsys):
        payload = {
            "pairs": [
                {
                    "pair_id": "p",
                    "ms_path": "ms.ppm",
                    "pan_path": "pan.pgm",
                    "ms_resolution_m": 1.0,
                    "pan_resolution_m": 4.0,
                }
            ],
            "methods": ["SF"],
            "output_dir": "out",
        }
        err = self.error(pair_dir, payload, capsys)
        assert "pairs[0]: ms_resolution_m must be >= pan_resolution_m" in err

    @pytest.mark.parametrize(
        "pair_id",
        [
            "../escaped", "..", ".", "a/b", "a\\b", "/tmp/abs", "a\u0000b", "a\u0001b", "a\ud800b",
            # Printed in the batch log: no control character or line break.
            "a\nb", "c\u009b2Jd", "a\tb", "a\rb", "a\u007fb", "a\u00a0b", "a\u2028b",
        ],
    )
    def test_pair_id_must_be_one_path_component(self, pair_dir, capsys, pair_id):
        payload = {
            "pairs": [{"pair_id": pair_id, "ms_path": "ms.ppm", "pan_path": "pan.pgm"}],
            "methods": ["SF"],
            "output_dir": "out",
        }
        err = self.error(pair_dir, payload, capsys)
        assert "pairs[0]: 'pair_id' must be a plain file name" in err
        assert err.count("\n") == 1
        assert not (pair_dir / "out").exists()
        assert not (pair_dir / "escaped").exists()

    @pytest.mark.parametrize(
        "output_dir, message",
        [
            ("", "'output_dir' must be a non-empty string"),
            (7, "'output_dir' must be a non-empty string"),
            ("out\u0000x", "'output_dir' must not contain a NUL character"),
            ("out\ud800", "'output_dir' must not contain a surrogate code point"),
        ],
        ids=["empty", "number", "nul", "surrogate"],
    )
    def test_bad_output_dir(self, pair_dir, capsys, output_dir, message):
        payload = {
            "pairs": [{"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm"}],
            "methods": ["SF"],
            "output_dir": output_dir,
        }
        assert self.error(pair_dir, payload, capsys) == f"error: {message}\n"
        assert not (pair_dir / "out").exists()

    def test_pair_id_may_not_be_the_metrics_table(self, tmp_path, capsys):
        _, payload = batch_manifest(tmp_path, n_pairs=2)
        payload["pairs"][1]["pair_id"] = "metrics.csv"
        err = self.error(tmp_path, payload, capsys)
        assert "pairs[1]: 'pair_id' 'metrics.csv' is reserved" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ms_resolution_m", "30"),
            ("pan_resolution_m", "15"),
            ("ms_resolution_m", True),
            ("location", 7),
            ("ms_sensor", ["A"]),
            pytest.param("ms_resolution_m", 10**400, id="ms_resolution_m-10**400"),
            # Ground resolutions are finite and greater than zero.
            ("ms_resolution_m", -2.8),
            ("pan_resolution_m", -5),
            ("ms_resolution_m", 0),
            ("pan_resolution_m", 0.0),
            pytest.param("pan_resolution_m", -0.0, id="pan_resolution_m-negative-zero"),
            # Labels reach the batch log: a terminal escape sequence, a lone
            # surrogate that stdout cannot encode, other non-printables.
            pytest.param("location", "\u001b[2Jcleared", id="location-ansi-clear-screen"),
            pytest.param("location", "\ud800", id="location-lone-surrogate"),
            pytest.param("ms_sensor", "a\tb", id="ms_sensor-tab"),
            pytest.param("pan_sensor", "PAN\x9b", id="pan_sensor-c1-control"),
            pytest.param("pan_sensor", "a\u00a0b", id="pan_sensor-no-break-space"),
        ],
    )
    def test_metadata_types_checked_at_load(self, pair_dir, capsys, key, value):
        entry = {
            "pair_id": "p",
            "ms_path": "ms.ppm",
            "pan_path": "pan.pgm",
            "ms_resolution_m": 30,
            "pan_resolution_m": 15,
        }
        entry[key] = value
        payload = {"pairs": [entry], "methods": ["SF"], "output_dir": "out"}
        err = self.error(pair_dir, payload, capsys)
        assert err.startswith(f"error: pairs[0]: {key!r} must be ") and err.count("\n") == 1, err
        assert not (pair_dir / "out").exists()

    def test_unreadable_manifest(self, tmp_path, capsys):
        assert main(["batch", "--manifest", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read manifest: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "manifest must be a JSON object"),
            (
                {"pairs": [], "methods": "SF", "output_dir": "out"},
                "'methods' must be a non-empty list",
            ),
            (
                {"pairs": [], "methods": [], "output_dir": "out"},
                "'methods' must be a non-empty list",
            ),
            (
                {"pairs": [], "methods": ["SF", 3], "output_dir": "out"},
                "'methods' entries must be strings, got 3",
            ),
            (
                {"pairs": [], "methods": ["SF"], "output_dir": "out"},
                "'pairs' must be a non-empty list",
            ),
            (
                {"pairs": ["p"], "methods": ["SF"], "output_dir": "out"},
                "pairs[0]: must be a JSON object",
            ),
            (
                {
                    "pairs": [
                        {"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm", "x": 1}
                    ],
                    "methods": ["SF"],
                    "output_dir": "out",
                },
                "pairs[0]: unknown keys: x",
            ),
        ],
        ids=[
            "not-an-object",
            "methods-not-a-list",
            "methods-empty",
            "method-not-a-string",
            "pairs-empty",
            "pair-not-an-object",
            "unknown-pair-key",
        ],
    )
    def test_malformed_manifest_prints_one_error(self, pair_dir, capsys, payload, message):
        err = self.error(pair_dir, payload, capsys)
        assert err == f"error: {message}\n"
        assert not (pair_dir / "out").exists()

    def test_valid_manifest_loads(self, pair_dir):
        payload = {
            "pairs": [
                {
                    "pair_id": "p",
                    "ms_path": "ms.ppm",
                    "pan_path": "pan.pgm",
                    "ms_sensor": "A",
                    "pan_sensor": "B",
                }
            ],
            "methods": ["sf", "ihs"],
            "output_dir": "out",
        }
        manifest = load_manifest(write_manifest(pair_dir / "manifest.json", payload))
        assert manifest.methods == ("SF", "IHS")
        assert manifest.pairs[0].ms_sensor == "A"
        assert manifest.pairs[0].pan_path == pair_dir / "pan.pgm"


class TestBatchCommand:
    def test_products_and_csv(self, tmp_path, capsys):
        manifest, payload = batch_manifest(tmp_path, n_pairs=2, methods=("SF", "IHS"))
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_OK
        out = capsys.readouterr().out
        for pair in ("p0", "p1"):
            for method in ("SF", "IHS"):
                product = tmp_path / "out" / pair / f"{method}.ppm"
                assert product.exists()
                assert load_pnm(product).band_count == 3
        assert "p0" in out and "ok ->" in out
        assert "p0" in out.splitlines()  # a pair without metadata logs its bare id
        records = read_csv(tmp_path / "out" / "metrics.csv")
        assert len(records) == 2 * 2 * ROWS_PER_PRODUCT
        order = [(r.pair_id, r.method) for r in records[::ROWS_PER_PRODUCT]]
        assert order == [("p0", "SF"), ("p0", "IHS"), ("p1", "SF"), ("p1", "IHS")]

    def test_partial_failure_keeps_going(self, tmp_path, capsys):
        manifest, payload = batch_manifest(tmp_path, n_pairs=3, methods=("SF",))
        (tmp_path / "data1" / "ms.ppm").write_bytes(b"garbage")
        code = main(["batch", "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert code == EXIT_FAILURE
        assert "1 of 3 fusion tasks failed" in captured.err
        assert "failed:" in captured.out
        assert (tmp_path / "out" / "p0" / "SF.ppm").exists()
        assert (tmp_path / "out" / "p2" / "SF.ppm").exists()
        assert not (tmp_path / "out" / "p1" / "SF.ppm").exists()
        records = read_csv(tmp_path / "out" / "metrics.csv")
        assert {r.pair_id for r in records} == {"p0", "p2"}

    def test_log_line_stdout_cannot_encode_keeps_the_table(self, tmp_path):
        """Under the POSIX locale stdout is ASCII: the table is still
        written, and the location prints backslash-escaped."""
        manifest, payload = batch_manifest(tmp_path, n_pairs=2, methods=("SF",))
        payload["pairs"][0]["location"] = "Zürich"
        write_manifest(manifest, payload)
        script = (
            f"import sys; sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r}); "
            "from panfuse import cli; sys.exit(cli.main(sys.argv[1:]))"
        )
        env = {**os.environ, "LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        done = subprocess.run(
            [sys.executable, "-c", script, "batch", "--manifest", str(manifest)],
            env=env,
            capture_output=True,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert b"p0 Z\\xfcrich\n" in done.stdout
        records = read_csv(tmp_path / "out" / "metrics.csv")
        assert [r.pair_id for r in records[::ROWS_PER_PRODUCT]] == ["p0", "p1"]

    def test_any_exception_fails_only_its_task(self, tmp_path, capsys, monkeypatch):
        manifest, _ = batch_manifest(tmp_path, n_pairs=2, methods=("SF", "IHS"))
        ihs_calls = itertools.count()

        def fuse_or_run_out_of_memory(method, ms, pan):
            if method == "IHS" and next(ihs_calls) == 0:
                raise MemoryError("no room for the product")
            return fuse(method, ms, pan)

        monkeypatch.setattr(cli, "fuse", fuse_or_run_out_of_memory)
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "1 of 4 fusion tasks failed" in captured.err
        assert "  IHS: failed: MemoryError: no room for the product" in captured.out
        records = read_csv(tmp_path / "out" / "metrics.csv")
        tasks = {(r.pair_id, r.method) for r in records}
        assert len(records) == 3 * ROWS_PER_PRODUCT
        assert {("p0", "SF"), ("p1", "SF")} <= tasks and len(tasks) == 3

    def test_unexpected_exception_prints_its_traceback(self, tmp_path, capsys, monkeypatch):
        manifest, _ = batch_manifest(tmp_path, n_pairs=2, methods=("SF", "IHS"))

        def _band_weights(method):
            return {"SF": 1.0}[method]

        def fuse_with_a_missing_key(method, ms, pan):
            _band_weights(method)
            return fuse(method, ms, pan)

        monkeypatch.setattr(cli, "fuse", fuse_with_a_missing_key)
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out.count("  IHS: failed: KeyError: 'IHS'") == 2
        assert "Traceback" not in captured.out
        # One traceback per failed task, naming the helper that raised, in
        # manifest order, after which the summary line still comes last.
        assert captured.err.count("Traceback (most recent call last):") == 2
        assert captured.err.count("in _band_weights") == 2
        assert 0 <= captured.err.index("p0/IHS:") < captured.err.index("p1/IHS:")
        assert captured.err.splitlines()[-1] == "2 of 4 fusion tasks failed"

    def test_expected_errors_print_no_traceback(self, tmp_path, capsys):
        manifest, _ = batch_manifest(tmp_path, n_pairs=2, methods=("SF",))
        (tmp_path / "data1" / "ms.ppm").write_bytes(b"garbage")
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_FAILURE
        assert capsys.readouterr().err == "1 of 2 fusion tasks failed\n"

    def test_any_exception_in_a_load_fails_only_its_pair(self, tmp_path, capsys, monkeypatch):
        manifest, _ = batch_manifest(tmp_path, n_pairs=2, methods=("SF", "IHS"))
        load_pnm_ok = cli.load_pnm

        def load_or_run_out_of_memory(path):
            if "data1" in str(path):
                raise MemoryError("no room for the image")
            return load_pnm_ok(path)

        monkeypatch.setattr(cli, "load_pnm", load_or_run_out_of_memory)
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "2 of 4 fusion tasks failed" in captured.err
        assert captured.out.count("failed: MemoryError: no room for the image") == 2
        # The pair's one load failure has one traceback, headed by the pair.
        assert captured.err.count("Traceback (most recent call last):") == 1
        assert captured.err.startswith("p1:\nTraceback")
        records = read_csv(tmp_path / "out" / "metrics.csv")
        assert {(r.pair_id, r.method) for r in records} == {("p0", "SF"), ("p0", "IHS")}

    def test_all_fail_rewrites_the_table(self, tmp_path, capsys):
        manifest, _ = batch_manifest(tmp_path, n_pairs=1, methods=("SF",))
        csv = tmp_path / "out" / "metrics.csv"
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_OK
        assert len(read_csv(csv)) == ROWS_PER_PRODUCT
        (tmp_path / "data0" / "ms.ppm").write_bytes(b"garbage")
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "1 of 1 fusion tasks failed" in captured.err
        assert "wrote 0 records" in captured.out
        assert csv.read_text(encoding="utf-8") == "pair_id,method,band,metric,value,excluded_pixels\n"

    def test_unwritable_pair_dir_fails_only_that_pair(self, tmp_path, capsys):
        manifest, payload = batch_manifest(tmp_path, n_pairs=2, methods=("SF",))
        payload["pairs"][1]["pair_id"] = "x" * 300  # longer than a file name may be
        write_manifest(manifest, payload)
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "1 of 2 fusion tasks failed" in captured.err
        records = read_csv(tmp_path / "out" / "metrics.csv")
        assert {r.pair_id for r in records} == {"p0"}

    def test_ascii_header_claiming_too_many_samples_fails_only_that_pair(
        self, tmp_path, capsys
    ):
        # 10**10 claimed samples: the loader must not allocate for them.
        manifest, _ = batch_manifest(tmp_path, n_pairs=2, methods=("SF",))
        (tmp_path / "data1" / "pan.pgm").write_bytes(b"P2\n100000 100000\n255\n1 2 3\n")
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "1 of 2 fusion tasks failed" in captured.err
        assert "SF: failed: truncated payload" in captured.out
        records = read_csv(tmp_path / "out" / "metrics.csv")
        assert {r.pair_id for r in records} == {"p0"}
        assert len(records) == ROWS_PER_PRODUCT

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        manifest, _ = batch_manifest(tmp_path, n_pairs=2, methods=("SF", "HFM"))
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_OK
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        products = sorted((tmp_path / "out").rglob("*.ppm"))
        first_products = [p.read_bytes() for p in products]
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first
        assert [p.read_bytes() for p in products] == first_products

    def test_thread_env_cap(self, tmp_path, capsys, monkeypatch):
        manifest, _ = batch_manifest(tmp_path, n_pairs=2, methods=METHOD_NAMES)

        def outputs():
            files = sorted((tmp_path / "out").rglob("*.*"))
            return {p.relative_to(tmp_path): p.read_bytes() for p in files}

        monkeypatch.setenv("PANFUSE_THREADS", "1")
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_OK
        serial = outputs()
        assert len(serial) == 2 * len(METHOD_NAMES) + 1
        shutil.rmtree(tmp_path / "out")
        monkeypatch.setenv("PANFUSE_THREADS", "2")
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_OK
        capsys.readouterr()
        assert outputs() == serial

    def test_invalid_thread_env(self, tmp_path, capsys, monkeypatch):
        manifest, _ = batch_manifest(tmp_path, n_pairs=1, methods=("SF",))
        monkeypatch.setenv("PANFUSE_THREADS", "abc")
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_USAGE
        assert "PANFUSE_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["1_0", "+2", " 2", "2 ", "\u0663", "", "0", "00", TOO_MANY_DIGITS]
    )
    def test_thread_env_plain_ascii_digits_only(self, value, tmp_path, capsys, monkeypatch):
        manifest, _ = batch_manifest(tmp_path, n_pairs=1, methods=("SF",))
        # As UTF-8 bytes, which os.environ decodes by the file system encoding:
        # under the POSIX locale that is ASCII, and it cannot encode U+0663.
        monkeypatch.setitem(os.environb, b"PANFUSE_THREADS", value.encode("utf-8"))
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_USAGE
        assert "PANFUSE_THREADS must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_threads_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("PANFUSE_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._thread_count(4) == 1
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli._thread_count(4) == 4

    def test_pair_label_in_log(self, tmp_path, capsys):
        d = tmp_path / "data"
        generate_pair(SyntheticSpec(seed=0, width=16, height=16, scale_factor=4), d)
        payload = {
            "pairs": [
                {
                    "pair_id": "urban-1",
                    "ms_path": "data/ms.ppm",
                    "pan_path": "data/pan.pgm",
                    "ms_sensor": "QB-MS",
                    "pan_sensor": "QB-PAN",
                    "ms_resolution_m": 2.8,
                    "pan_resolution_m": 0.7,
                }
            ],
            "methods": ["SF"],
            "output_dir": "out",
        }
        manifest = write_manifest(tmp_path / "manifest.json", payload)
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "urban-1" in out
        assert "QB-MS" in out
        assert "2.8 m" in out


class TestReportCommand:
    def make_csv(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        main(
            [
                "evaluate",
                "--ms", str(pair_dir / "ms.ppm"),
                "--pan", str(pair_dir / "pan.pgm"),
                "--fused", str(pair_dir / "ms.ppm"),
                "--pair-id", "demo",
                "--method", "sf",
                "--csv", str(csv),
            ]
        )
        capsys.readouterr()
        return csv

    def test_renders_one_chart_per_metric(self, pair_dir, capsys):
        csv = self.make_csv(pair_dir, capsys)
        out = pair_dir / "charts"
        assert main(["report", "--csv", str(csv), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        names = sorted(p.name for p in out.glob("*.svg"))
        assert names == sorted(f"{m}.svg" for m in METRIC_ORDER)

    def test_repeated_rows_warn_once_and_chart_the_last(self, pair_dir, capsys):
        fused = pair_dir / "sf.ppm"
        ms, pan = load_pnm(pair_dir / "ms.ppm"), load_pnm(pair_dir / "pan.pgm")
        save_pnm(fuse("SF", ms, pan), fused)
        twice = self.make_csv(pair_dir, capsys)
        for csv in (twice, pair_dir / "once.csv"):
            assert main(
                [
                    "evaluate",
                    "--ms", str(pair_dir / "ms.ppm"),
                    "--pan", str(pair_dir / "pan.pgm"),
                    "--fused", str(fused),
                    "--pair-id", "demo",
                    "--method", "sf",
                    "--csv", str(csv),
                ]
            ) == EXIT_OK
        capsys.readouterr()

        once = pair_dir / "once.csv"
        assert main(["report", "--csv", str(once), "--out", str(pair_dir / "a")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main(["report", "--csv", str(twice), "--out", str(pair_dir / "b")]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == (
            f"warning: {ROWS_PER_PRODUCT} repeated (pair_id, method, band, metric) rows; "
            "the last of each is charted\n"
        )
        assert out == "".join(f"wrote {pair_dir / 'b' / f'{m}.svg'}\n" for m in METRIC_ORDER)
        for m in METRIC_ORDER:
            assert (pair_dir / "b" / f"{m}.svg").read_bytes() == (
                pair_dir / "a" / f"{m}.svg"
            ).read_bytes()

    def test_malformed_row_names_line(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text(
            "pair_id,method,band,metric,value,excluded_pixels\np,SF,1,DI,oops,0\n",
            encoding="utf-8",
        )
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_negative_excluded_is_usage_error(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text(
            "pair_id,method,band,metric,value,excluded_pixels\np,SF,1,DI,0.5,-5\n",
            encoding="utf-8",
        )
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 2: bad excluded_pixels '-5'\n"
        assert not (pair_dir / "c").exists()

    def test_value_text_repr_never_writes_is_usage_error(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text(
            "pair_id,method,band,metric,value,excluded_pixels\np,SF,1,DI,1_000,0\n",
            encoding="utf-8",
        )
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 2: bad value '1_000'\n"
        assert not (pair_dir / "c").exists()

    def test_bad_band_is_usage_error(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text(
            "pair_id,method,band,metric,value,excluded_pixels\n"
            "p,SF,1,DI,0.5,0\np,SF,banana,DI,0.5,0\n",
            encoding="utf-8",
        )
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 3: bad band 'banana'\n"
        assert not (pair_dir / "c").exists()

    # A C1 CSI (U+009B) or a tab would name the chart file and reach stdout.
    @pytest.mark.parametrize("metric", ["../escaped", "a/b", "", "c\x9b2Jd", "a\tb"])
    def test_metric_that_is_not_a_file_name_is_usage_error(self, pair_dir, capsys, metric):
        csv = pair_dir / "m.csv"
        csv.write_text(
            "pair_id,method,band,metric,value,excluded_pixels\n"
            f"p,SF,1,DI,0.5,0\np,SF,1,{metric},0.5,0\n",
            encoding="utf-8",
        )
        before = sorted(pair_dir.rglob("*"))
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: line 3: bad metric {metric!r}\n"
        assert sorted(pair_dir.rglob("*")) == before

    @pytest.mark.parametrize(
        "rows, err",
        [
            ("p,SF,1,DI,0.5,0\n\x01,SF,1,DI,0.5,0", "line 3: bad pair_id '\\x01'"),
            ("p,SF,1,DI,1.5e308,0", "line 2: bad value '1.5e308'"),
            ("p,SF,1,DI,9e307,0\np,IHS,1,DI,-9e307,0", "line 2: bad value '9e307'"),
        ],
    )
    def test_row_the_chart_cannot_carry_is_usage_error(self, pair_dir, capsys, rows, err):
        """A control character makes the SVG ill-formed XML, and values
        this large overflow the axis into NaN coordinates."""
        csv = pair_dir / "m.csv"
        csv.write_text(
            f"pair_id,method,band,metric,value,excluded_pixels\n{rows}\n",
            encoding="utf-8",
        )
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {err}")
        assert not (pair_dir / "c").exists()

    def test_oversized_field_is_usage_error(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text(
            "pair_id,method,band,metric,value,excluded_pixels\n"
            + "p" * 200_000 + ",SF,1,DI,0.5,0\n",
            encoding="utf-8",
        )
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: line 2: field larger than field limit (131072)\n"

    def test_headerless_or_empty_body(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text("pair_id,method,band,metric,value,excluded_pixels\n", encoding="utf-8")
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert "no records" in capsys.readouterr().err


def write_coarse_ms(d, seed, sixteen_bit):
    """A synthetic pair under ``d`` plus ``coarse.ppm``, a 4x4 MS for the
    16x16 PAN stored 8- or 16-bit; returns its DN as (band, row, col)."""
    generate_pair(SyntheticSpec(seed=seed, width=16, height=16, scale_factor=4), d)
    ms = load_pnm(d / "ms.ppm")
    coarse = np.stack([b.samples[::4, ::4] for b in ms.bands]).astype(np.uint8)
    if sixteen_bit:
        payload = (np.moveaxis(coarse, 0, -1).astype(">u2") * 257).tobytes()
        (d / "coarse.ppm").write_bytes(b"P6\n4 4\n65535\n" + payload)
    else:
        save_pnm(MultiBandImage(tuple(Raster(c.astype(np.float64)) for c in coarse)),
                 d / "coarse.ppm")
    return coarse


def row(r):
    return (r.pair_id, r.method, str(r.band), r.metric, float(r.value).hex(),
            r.excluded_pixels)


def hand_built_rows(coarse, pan_path, fused_path, pair_id, method):
    """``evaluate_all`` on float copies that carry no uint8 samples: the
    coarse MS enlarged 4x by ``np.repeat``, and PAN and the product copied."""
    def plain(a):
        r = Raster(np.array(a, dtype=np.float64))
        assert dn8(r) is None
        return r

    ms = MultiBandImage(tuple(plain(np.repeat(np.repeat(c, 4, 0), 4, 1)) for c in coarse))
    pan = plain(load_pnm(pan_path).samples)
    fused = MultiBandImage(tuple(plain(b.samples) for b in load_pnm(fused_path).bands))
    return [row(r) for r in evaluate_all(ms, pan, fused, pair_id, method)]


class TestCoarseMs:
    """The CLI resamples a coarser MS onto the PAN grid before scoring;
    its rows must equal the hand-built float path's, bit for bit."""

    @pytest.mark.parametrize("sixteen_bit", [False, True], ids=["8-bit", "16-bit"])
    def test_evaluate(self, tmp_path, capsys, sixteen_bit):
        coarse = write_coarse_ms(tmp_path, 3, sixteen_bit)
        csv = tmp_path / "m.csv"
        code = main(
            [
                "evaluate",
                "--ms", str(tmp_path / "coarse.ppm"),
                "--pan", str(tmp_path / "pan.pgm"),
                "--fused", str(tmp_path / "reference.ppm"),
                "--pair-id", "c",
                "--method", "sf",
                "--csv", str(csv),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        want = hand_built_rows(
            coarse, tmp_path / "pan.pgm", tmp_path / "reference.ppm", "c", "SF"
        )
        assert [row(r) for r in read_csv(csv)] == want

    def test_batch(self, tmp_path, capsys):
        coarse = [write_coarse_ms(tmp_path / f"data{k}", k, k == 1) for k in range(2)]
        pairs = [
            {"pair_id": f"p{k}", "ms_path": f"data{k}/coarse.ppm",
             "pan_path": f"data{k}/pan.pgm"}
            for k in range(2)
        ]
        payload = {"pairs": pairs, "methods": list(METHOD_NAMES), "output_dir": "out"}
        manifest = write_manifest(tmp_path / "manifest.json", payload)
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_OK
        capsys.readouterr()
        want = [
            r
            for k in range(2)
            for method in METHOD_NAMES
            for r in hand_built_rows(
                coarse[k], tmp_path / f"data{k}" / "pan.pgm",
                tmp_path / "out" / f"p{k}" / f"{method}.ppm", f"p{k}", method,
            )
        ]
        assert [row(r) for r in read_csv(tmp_path / "out" / "metrics.csv")] == want


class TestSingleBandMs:
    """A PGM MS runs as a one-band image: the band-wise methods fuse it,
    SF, which needs three bands, fails alone, and the one-band products
    are scored and charted like any other."""

    def test_batch_evaluate_and_report(self, tmp_path, capsys):
        generate_pair(SyntheticSpec(seed=2, width=16, height=16, scale_factor=4), tmp_path)
        save_pnm(load_pnm(tmp_path / "ms.ppm").bands[1], tmp_path / "ms.pgm")
        payload = {
            "pairs": [{"pair_id": "p", "ms_path": "ms.pgm", "pan_path": "pan.pgm"}],
            "methods": ["HFA", "SF", "EF"],
            "output_dir": "out",
        }
        manifest = write_manifest(tmp_path / "manifest.json", payload)
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "  SF: failed: ihs_forward requires exactly 3 bands, got 1\n" in captured.out
        assert captured.err == "1 of 3 fusion tasks failed\n"
        for method in ("HFA", "EF"):
            product = load_pnm(tmp_path / "out" / "p" / f"{method}.ppm")
            assert isinstance(product, Raster)
            assert (product.width, product.height) == (16, 16)
        rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert [r.method for r in rows] == ["HFA"] * 14 + ["EF"] * 14
        assert {r.band for r in rows} == {"1", "avg"}

        csv = tmp_path / "e.csv"
        code = main(
            [
                "evaluate",
                "--ms", str(tmp_path / "ms.pgm"),
                "--pan", str(tmp_path / "pan.pgm"),
                "--fused", str(tmp_path / "out" / "p" / "EF.ppm"),
                "--pair-id", "p",
                "--method", "EF",
                "--csv", str(csv),
            ]
        )
        assert code == EXIT_OK
        assert [row(r) for r in read_csv(csv)] == [row(r) for r in rows[14:]]
        charts = tmp_path / "charts"
        assert main(["report", "--csv", str(csv), "--out", str(charts)]) == EXIT_OK
        capsys.readouterr()
        assert sorted(p.stem for p in charts.iterdir()) == sorted(METRIC_ORDER)


class FakeLibc:
    """A C library lookup result that records its ``mallopt`` calls."""

    def __init__(self, glibc=True):
        self.calls = []
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.36"
        self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


class TestKeepFreedPlanes:
    def test_sets_one_arena_and_both_thresholds_on_glibc(self, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_freed_planes()
        # M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD of <malloc.h>.
        assert libc.calls == [(-8, 1), (-3, 32 << 20), (-1, 256 << 20)]

    def test_other_libcs_are_left_alone(self, monkeypatch):
        libc = FakeLibc(glibc=False)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_freed_planes()
        assert libc.calls == []

    def test_failed_lookup_is_ignored(self, monkeypatch):
        def fail(name):
            raise OSError("no such library")

        monkeypatch.setattr(cli.ctypes, "CDLL", fail)
        cli._keep_freed_planes()

    def test_main_calls_it(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_planes", lambda: calls.append(1))
        assert main([]) == EXIT_USAGE
        capsys.readouterr()
        assert calls == [1]

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="the allocator settings apply to Linux glibc only",
    )
    def test_repeated_fuse_calls_do_not_fault_their_planes_back_in(self, tmp_path):
        generate_pair(SyntheticSpec(seed=3, width=512, height=512, scale_factor=4), tmp_path)
        script = f"""
import resource, sys
sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})
from panfuse import cli
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = cli.main(["fuse", "--ms", "ms.ppm", "--pan", "pan.pgm", "--method", "SF",
                     "--out", "sf.ppm"])
    assert code == 0, code
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""
        # A fresh interpreter, so no earlier test has warmed its heap.
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        faults = json.loads(done.stdout.splitlines()[-1])
        # Without the settings each call takes about 9,000 minor faults.
        assert faults[2] < 500, faults
