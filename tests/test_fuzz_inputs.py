"""Mutated metrics CSVs, batch manifests and PNM images, run through
``cli.main``.

Whatever the mutation, no exception escapes ``main``, the exit code is one
of README's table, an exit 2 (and an exit 1 of ``fuse`` or ``evaluate``)
prints exactly one ``error:`` line, and a run that exits 0 leaves what it
reported: charts that parse as XML, a PAN-sized product that ``load_pnm``
reads, or the rows of one product.

A few manifests and CSVs also run through ``python -m panfuse.cli`` under
the POSIX locale, where stdout and file names are ASCII: an in-process
``StringIO`` takes any text and so hides an encoding fault.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from panfuse import cli
from panfuse.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from panfuse.fusion import METHOD_NAMES
from panfuse.metrics import METRIC_ORDER
from panfuse.raster import load_pnm
from panfuse.report import read_csv
from panfuse.synthetic import SyntheticSpec, generate_pair


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An 8x8 pair, a valid manifest for it and the metrics CSV its batch
    writes."""
    root = tmp_path_factory.mktemp("fuzz")
    generate_pair(SyntheticSpec(seed=3, width=8, height=8, scale_factor=4), root / "data")
    manifest = {
        "pairs": [
            {
                "pair_id": "p0",
                "ms_path": str(root / "data" / "ms.ppm"),
                "pan_path": str(root / "data" / "pan.pgm"),
                "ms_sensor": "MS",
                "ms_resolution_m": 4.0,
                "pan_resolution_m": 1.0,
            }
        ],
        "methods": ["SF", "HFA"],
        "output_dir": "out",
    }
    code, _, _ = run(batch_argv(root, json.dumps(manifest)))
    assert code == EXIT_OK
    return root, manifest, (root / "out" / "metrics.csv").read_bytes()


def batch_argv(directory: Path, text: str) -> list[str]:
    path = directory / "manifest.json"
    path.write_text(text, encoding="utf-8")
    return ["batch", "--manifest", str(path)]


def run(argv):
    """``main(argv)``'s exit code, stdout and stderr; an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_report(csv_path: Path, out_dir: Path):
    code, out, err = run(["report", "--csv", str(csv_path), "--out", str(out_dir)])
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out_dir.exists()
        return
    charts = sorted(str(p) for p in out_dir.iterdir())
    assert sorted(line.removeprefix("wrote ") for line in out.splitlines()) == charts
    for chart in charts:
        ET.fromstring(Path(chart).read_bytes())


# --- CSV mutations: each takes the bytes and a draw function ---------------

NON_ASCII_DIGITS = ["٣", "１", "߁", "\U0001d7d9"]
HUGE_NUMBERS = ["1e309", "-1e301", "1e300", "-inf", "nan", "1" + "0" * 400, "9" * 5000]


def flip(body, draw):
    at = draw(st.integers(0, max(len(body) - 1, 0)))
    if body:
        body[at] ^= draw(st.integers(1, 255))
    return body


def truncate(body, draw):
    return body[: draw(st.integers(0, len(body)))]


def repeat_row(body, draw):
    lines = body.split(b"\n")
    row = draw(st.sampled_from(lines))
    lines.insert(draw(st.integers(0, len(lines))), row)
    return bytearray(b"\n".join(lines))


def insert_control(body, draw):
    at = draw(st.integers(0, len(body)))
    return body[:at] + bytes([draw(st.integers(0, 0x1F))]) + body[at:]


def huge_value(body, draw):
    lines = body.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split(b",")
    if len(fields) == 6:
        fields[4] = draw(st.sampled_from(HUGE_NUMBERS)).encode()
        lines[i] = b",".join(fields)
    return bytearray(b"\n".join(lines))


def non_ascii_digit(body, draw):
    digits = [k for k, b in enumerate(body) if 0x30 <= b <= 0x39]
    if not digits:
        return body
    at = draw(st.sampled_from(digits))
    return body[:at] + draw(st.sampled_from(NON_ASCII_DIGITS)).encode() + body[at + 1 :]


CSV_MUTATIONS = [flip, truncate, repeat_row, insert_control, huge_value, non_ascii_digit]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_report_on_a_mutated_csv(inputs, data):
    root, _, valid = inputs
    body = bytearray(valid)
    for mutate in data.draw(st.lists(st.sampled_from(CSV_MUTATIONS), min_size=1, max_size=3)):
        body = mutate(body, data.draw)
    with tempfile.TemporaryDirectory(dir=root) as d:
        csv_path = Path(d) / "m.csv"
        csv_path.write_bytes(bytes(body))
        assert_report(csv_path, Path(d) / "charts")


# --- Manifest mutations: on the parsed tree, then written as JSON text -----


class Raw(str):
    """JSON text written as it is: deep nesting, integers too long for
    ``json.dumps``."""


class Repeated(dict):
    """A JSON object that writes its first key twice, the second time with
    ``again`` as the value."""

    def __init__(self, members, again):
        super().__init__(members)
        self.again = again


def dump(value) -> str:
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        members = list(value.items())
        if isinstance(value, Repeated):
            members.append((members[0][0], value.again))
        return "{" + ",".join(f"{json.dumps(k)}:{dump(v)}" for k, v in members) + "}"
    if isinstance(value, list):
        return "[" + ",".join(dump(v) for v in value) + "]"
    return json.dumps(value)


def slots(tree, path=()):
    """Every (path, value) in ``tree``, the root included."""
    yield path, tree
    if isinstance(tree, (dict, list)):
        keys = tree.keys() if isinstance(tree, dict) else range(len(tree))
        for k in keys:
            yield from slots(tree[k], path + (k,))


def replaced(tree, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(tree, dict):
        return {**tree, head: replaced(tree[head], rest, value)}
    return [replaced(v, rest, value) if k == head else v for k, v in enumerate(tree)]


SWAPS = [
    None, True, False, 0, -1, 2.5, 1e308, [], {}, [1], {"a": 1},
    "", "x", "a\tb", "\ud800", "..", "a/b", "metrics.csv",
]
DEPTHS = [2, 60, 950, 5000, 100_000]
HUGE_INTEGERS = [Raw("1" + "0" * 400), Raw("-" + "9" * 4300), Raw("9" * 5000), 10**20]


@st.composite
def manifest_text(draw, manifest):
    tree = manifest
    for _ in range(draw(st.integers(1, 3))):
        path, old = draw(st.sampled_from(list(slots(tree))))
        kind = draw(st.sampled_from(["swap", "repeat", "nest", "huge"]))
        if kind == "repeat" and isinstance(old, dict) and old:
            new = Repeated(old, draw(st.sampled_from([*SWAPS, next(iter(old.values()))])))
        elif kind == "nest":
            depth = draw(st.sampled_from(DEPTHS))
            new = Raw("[" * depth + "]" * depth)
        elif kind == "huge":
            new = draw(st.sampled_from(HUGE_INTEGERS))
        else:
            new = draw(st.sampled_from(SWAPS))
        tree = replaced(tree, path, new)
    return dump(tree)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_on_a_mutated_manifest(inputs, data):
    root, manifest, _ = inputs
    text = data.draw(manifest_text(manifest))
    with tempfile.TemporaryDirectory(dir=root) as d:
        # One level down, so that an output_dir of ".." stays inside d.
        (Path(d) / "m").mkdir()
        code, _, err = run(batch_argv(Path(d) / "m", text))
        assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE)
        if code == EXIT_USAGE:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
        # A batch that ran writes its table, also when tasks failed.
        tables = [p for p in Path(d).rglob("metrics.csv") if p.is_file()]
        assert len(tables) == 1
        if code == EXIT_OK:
            assert_report(tables[0], Path(d) / "charts")


# --- The same inputs in a subprocess under the POSIX locale ---------------

POSIX = {"LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def run_posix(argv, directory: Path) -> tuple[int, bytes]:
    """``python -m panfuse.cli argv`` in ``directory`` under the POSIX
    locale with UTF-8 mode and locale coercion off; returns the exit code
    and stderr after checking that stdout is ASCII, that no traceback is printed and
    that an exit 2 prints exactly one ``error:`` line."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **POSIX, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-m", "panfuse.cli", *argv],
        cwd=directory, env=env, capture_output=True, timeout=120,
    )
    assert done.stdout.isascii(), done.stdout
    assert b"Traceback" not in done.stderr, done.stderr
    if done.returncode == EXIT_USAGE:
        assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1, done.stderr
    return done.returncode, done.stderr


def posix_batch(root: Path, text: str) -> tuple[int, bytes]:
    """The batch's exit code and stderr; an exit 2 must write nothing."""
    with tempfile.TemporaryDirectory(dir=root) as d:
        # One level down, so that an output_dir of ".." stays inside d.
        (Path(d) / "m").mkdir()
        code, err = run_posix(batch_argv(Path(d) / "m", text), Path(d) / "m")
        assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE)
        if code == EXIT_USAGE:
            assert [p.name for p in Path(d).rglob("*")] == ["m", "manifest.json"]
        return code, err


def posix_report(root: Path, body: bytes) -> int:
    with tempfile.TemporaryDirectory(dir=root) as d:
        (Path(d) / "m.csv").write_bytes(body)
        code, _ = run_posix(["report", "--csv", "m.csv", "--out", "charts"], Path(d))
        assert code in (EXIT_OK, EXIT_USAGE)
        assert (Path(d) / "charts").exists() == (code == EXIT_OK)
        return code


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_posix_locale_on_mutated_inputs(inputs, data):
    root, manifest, valid = inputs
    posix_batch(root, data.draw(manifest_text(manifest)))
    body = bytearray(valid)
    for mutate in data.draw(st.lists(st.sampled_from(CSV_MUTATIONS), min_size=1, max_size=3)):
        body = mutate(body, data.draw)
    posix_report(root, bytes(body))


@pytest.mark.parametrize(
    "key, label, code",
    [
        ("location", "Z\u00fcrich", EXIT_OK),  # printed backslash-escaped
        ("pair_id", "c\u009b2Jd", EXIT_USAGE),
        ("pair_id", "p\u00fc", EXIT_USAGE),  # no ASCII file name
    ],
)
def test_posix_locale_batch_labels(inputs, key, label, code):
    root, manifest, _ = inputs
    pair = {**manifest["pairs"][0], key: label}
    assert posix_batch(root, json.dumps({**manifest, "pairs": [pair]}))[0] == code


def test_posix_locale_output_dir_the_file_system_cannot_name(inputs):
    root, manifest, _ = inputs
    code, err = posix_batch(root, json.dumps({**manifest, "output_dir": "out\u00fc"}))
    assert code == EXIT_USAGE
    assert err.startswith(b"error: 'output_dir' cannot be encoded in the file system encoding")


def test_posix_locale_input_the_file_system_cannot_name(inputs, tmp_path):
    """An input that exists but whose name is not ASCII is reported as a
    name the encoding cannot carry, not as a missing file."""
    root, manifest, _ = inputs
    ms = Path(manifest["pairs"][0]["ms_path"])
    # Written through a bytes path, which any locale can carry.
    with open(os.fsencode(tmp_path) + b"/\xc3\xbc.ppm", "wb") as f:
        f.write(ms.read_bytes())
    pair = {**manifest["pairs"][0], "ms_path": f"{tmp_path}/\u00fc.ppm"}
    code, err = posix_batch(root, json.dumps({**manifest, "pairs": [pair]}))
    assert code == EXIT_USAGE
    assert err.startswith(b"error: pairs[0]: 'ms_path' cannot be encoded"), err


@pytest.mark.parametrize(
    "row, code",
    [
        ("p\u00fc,SF\u00fc,1,DI,0.5,0", EXIT_OK),  # only in the charts' UTF-8 text
        ("p,SF,1,c\u009b2Jd,0.5,0", EXIT_USAGE),
        ("p,SF,1,D\u00fc,0.5,0", EXIT_USAGE),  # no ASCII file name
    ],
)
def test_posix_locale_report_labels(inputs, row, code):
    root, _, valid = inputs
    header = valid.split(b"\n", 1)[0]
    assert posix_report(root, header + b"\n" + row.encode("utf-8") + b"\n") == code


# --- PNM mutations: on the header fields, then on the file's bytes ---------

MAGICS = [b"P1", b"P2", b"P3", b"P4", b"P5", b"P6", b"P7", b"p5", b"P", b""]
SIZES = [b"0", b"1", b"4", b"7", b"9", b"16", b"-8", b"08", b"65536", b"1" + b"0" * 12]
MAXVALS = [b"0", b"1", b"15", b"255", b"256", b"65535", b"65536", b"-1", b"1" + b"0" * 20]
COMMENTS = [b"# c\n", b"#\n", b"# \xff\xfe\n", b"#no newline", b"# 1 2 3\n"]


def pnm_fields(image: np.ndarray, binary: bool, maxval: int) -> dict:
    """The header tokens, the separators after each and the payload of
    ``image`` (uint8, 2-D or height x width x 3) as a PNM file."""
    magic = {(True, 2): b"P5", (True, 3): b"P6", (False, 2): b"P2", (False, 3): b"P3"}
    samples = image.astype(np.int64) * (maxval // 255)
    if binary:
        payload = samples.astype(">u2" if maxval > 255 else "u1").tobytes()
    else:
        payload = b" ".join(b"%d" % v for v in samples.ravel()) + b"\n"
    return {
        "magic": magic[binary, image.ndim],
        "width": b"%d" % image.shape[1],
        "height": b"%d" % image.shape[0],
        "maxval": b"%d" % maxval,
        "separators": [b"\n", b" ", b"\n", b"\n"],
        "payload": payload,
    }


def pnm_bytes(fields: dict) -> bytes:
    tokens = [fields[k] for k in ("magic", "width", "height", "maxval")]
    header = b"".join(t + sep for t, sep in zip(tokens, fields["separators"]))
    return header + fields["payload"]


def swap(key, values):
    def mutate(fields, draw):
        fields[key] = draw(st.sampled_from(values))

    mutate.__name__ = f"swap_{key}"
    return mutate


def comment(fields, draw):
    at = draw(st.integers(0, 3))
    fields["separators"][at] += draw(st.sampled_from(COMMENTS))


def append(body, draw):
    return body + draw(st.sampled_from([b"\n", b" 7", b"\x00" * 3, b"# tail\n", b"999999"]))


HEADER_MUTATIONS = [
    swap("magic", MAGICS),
    swap("width", SIZES),
    swap("height", SIZES),
    swap("maxval", MAXVALS),
    comment,
]
BYTE_MUTATIONS = [flip, truncate, append]


@pytest.fixture(scope="module")
def images():
    """An 8x8 three-band MS image and an 8x8 PAN, uint8 with no zero."""
    rng = np.random.default_rng(5)
    return {
        "ms": rng.integers(1, 256, (8, 8, 3), dtype=np.uint8),
        "pan": rng.integers(1, 256, (8, 8), dtype=np.uint8),
    }


@st.composite
def pnm_case(draw, images):
    """The command, the input it mutates and that input's bytes."""
    command = draw(st.sampled_from(["fuse", "evaluate"]))
    target = draw(st.sampled_from(["ms", "pan"] + (["fused"] if command == "evaluate" else [])))
    image = images["pan" if target == "pan" else "ms"]
    fields = pnm_fields(image, draw(st.booleans()), draw(st.sampled_from([255, 65535])))
    mutations = st.sampled_from(HEADER_MUTATIONS + BYTE_MUTATIONS)
    # Header mutations first, on the fields; byte mutations on the file.
    chosen = sorted(
        draw(st.lists(mutations, min_size=1, max_size=3)), key=BYTE_MUTATIONS.__contains__
    )
    body = None
    for mutate in chosen:
        if mutate in BYTE_MUTATIONS:
            body = mutate(bytearray(pnm_bytes(fields)) if body is None else body, draw)
        else:
            mutate(fields, draw)
    return command, target, bytes(pnm_bytes(fields) if body is None else body)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuse_and_evaluate_on_a_mutated_pnm(inputs, images, data):
    root, _, _ = inputs
    command, target, body = data.draw(pnm_case(images))
    with tempfile.TemporaryDirectory(dir=root) as d:
        d = Path(d)
        paths = {"ms": d / "ms.ppm", "pan": d / "pan.pgm", "fused": d / "fused.ppm"}
        for name, path in paths.items():
            image = images["pan" if name == "pan" else "ms"]
            path.write_bytes(pnm_bytes(pnm_fields(image, True, 255)))
        paths[target].write_bytes(body)
        argv = [command, "--ms", str(paths["ms"]), "--pan", str(paths["pan"])]
        if command == "fuse":
            argv += ["--method", data.draw(st.sampled_from(METHOD_NAMES)), "--out", str(d / "o.ppm")]
        else:
            argv += ["--fused", str(paths["fused"]), "--pair-id", "p", "--method", "SF"]
            argv += ["--csv", str(d / "m.csv")]
        code, _, err = run(argv)
        # A malformed or mismatched image is a runtime failure, not a usage error.
        assert code in (EXIT_OK, EXIT_FAILURE)
        if code == EXIT_FAILURE:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        elif command == "fuse":
            pan, product = load_pnm(paths["pan"]), load_pnm(d / "o.ppm")
            assert (product.width, product.height) == (pan.width, pan.height)
        else:
            assert len(read_csv(d / "m.csv")) == len(METRIC_ORDER) * 4
