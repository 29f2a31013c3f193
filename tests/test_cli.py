"""CLI subcommands, exit codes, manifest validation, batch determinism."""

import itertools
import json
import shutil

import numpy as np
import pytest

from panfuse import cli
from panfuse.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, load_manifest, main
from panfuse.fusion import METHOD_NAMES, fuse
from panfuse.metrics import METRIC_ORDER
from panfuse.raster import MultiBandImage, Raster, load_pnm, save_pnm
from panfuse.report import read_csv
from panfuse.synthetic import SyntheticSpec, generate_pair

ROWS_PER_PRODUCT = len(METRIC_ORDER) * 4  # 3 bands + the avg row


@pytest.fixture()
def pair_dir(tmp_path):
    generate_pair(SyntheticSpec(seed=1, width=16, height=16, scale_factor=4), tmp_path)
    return tmp_path


def write_manifest(path, payload):
    path.write_text(json.dumps(payload))
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
        text = csv.read_text()
        assert text.count("pair_id,method,band,metric,value,excluded_pixels") == 1
        assert len(read_csv(csv)) == 2 * ROWS_PER_PRODUCT

    @pytest.mark.parametrize("percentile", ["150", "100", "0", "-1", "nan"])
    def test_csa_percentile_out_of_range_is_usage_error(self, pair_dir, capsys, percentile):
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
                "--csa-percentile", percentile,
            ]
        )
        assert code == EXIT_USAGE
        assert "--csa-percentile must be a number in (0, 100)" in capsys.readouterr().err
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
        manifest.write_text(content)
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

    @pytest.mark.parametrize("percentile", [100.0, pytest.param(10**400, id="10**400")])
    def test_bad_percentile(self, pair_dir, capsys, percentile):
        payload = {
            "pairs": [{"pair_id": "p", "ms_path": "ms.ppm", "pan_path": "pan.pgm"}],
            "methods": ["SF"],
            "output_dir": "out",
            "csa_percentile": percentile,
        }
        err = self.error(pair_dir, payload, capsys)
        assert "csa_percentile" in err

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
        "pair_id", ["../escaped", "..", ".", "a/b", "a\\b", "/tmp/abs", "a\u0000b"]
    )
    def test_pair_id_must_be_one_path_component(self, pair_dir, capsys, pair_id):
        payload = {
            "pairs": [{"pair_id": pair_id, "ms_path": "ms.ppm", "pan_path": "pan.pgm"}],
            "methods": ["SF"],
            "output_dir": "out",
        }
        err = self.error(pair_dir, payload, capsys)
        assert "pairs[0]: 'pair_id' must be a plain file name" in err
        assert not (pair_dir / "out").exists()
        assert not (pair_dir / "escaped").exists()

    @pytest.mark.parametrize(
        "output_dir, message",
        [
            ("", "'output_dir' must be a non-empty string"),
            (7, "'output_dir' must be a non-empty string"),
            ("out\u0000x", "'output_dir' must not contain a NUL character"),
        ],
        ids=["empty", "number", "nul"],
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
        assert f"pairs[0]: {key!r} must be" in err
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
        assert manifest.csa_percentile == 90.0


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
        assert csv.read_text() == "pair_id,method,band,metric,value,excluded_pixels\n"

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

    @pytest.mark.parametrize("value", ["1_0", "+2", " 2", "2 ", "\u0663", "", "0", "00"])
    def test_thread_env_plain_ascii_digits_only(self, value, tmp_path, capsys, monkeypatch):
        manifest, _ = batch_manifest(tmp_path, n_pairs=1, methods=("SF",))
        monkeypatch.setenv("PANFUSE_THREADS", value)
        assert main(["batch", "--manifest", str(manifest)]) == EXIT_USAGE
        assert "PANFUSE_THREADS must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_malformed_row_names_line(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text("pair_id,method,band,metric,value,excluded_pixels\np,SF,1,DI,oops,0\n")
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_negative_excluded_is_usage_error(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text("pair_id,method,band,metric,value,excluded_pixels\np,SF,1,DI,0.5,-5\n")
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 2: bad excluded_pixels '-5'\n"
        assert not (pair_dir / "c").exists()

    def test_bad_band_is_usage_error(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text(
            "pair_id,method,band,metric,value,excluded_pixels\n"
            "p,SF,1,DI,0.5,0\np,SF,banana,DI,0.5,0\n"
        )
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 3: bad band 'banana'\n"
        assert not (pair_dir / "c").exists()

    def test_oversized_field_is_usage_error(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text(
            "pair_id,method,band,metric,value,excluded_pixels\n"
            + "p" * 200_000 + ",SF,1,DI,0.5,0\n"
        )
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: line 2: field larger than field limit (131072)\n"

    def test_headerless_or_empty_body(self, pair_dir, capsys):
        csv = pair_dir / "m.csv"
        csv.write_text("pair_id,method,band,metric,value,excluded_pixels\n")
        assert main(["report", "--csv", str(csv), "--out", str(pair_dir / "c")]) == EXIT_USAGE
        assert "no records" in capsys.readouterr().err
