"""Mutated metrics CSVs and batch manifests, run through ``cli.main``.

Whatever the mutation, no exception escapes ``main``, the exit code is one
of README's table, an exit 2 prints exactly one ``error:`` line, and a run
that exits 0 leaves charts that parse as XML.
"""

import io
import json
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panfuse.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
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
        "csa_percentile": 90.0,
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
