"""Command-line front end.

Subcommands: fuse one pair, evaluate a fused product, run a manifest of
pairs in batch, generate a synthetic test pair, and turn a metric CSV
into SVG charts. Exit codes: 0 on success, 1 when processing failed
(including partial batch failures), 2 for usage and manifest problems.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .fusion import METHOD_NAMES, fuse, normalize_method
from .metrics import DEFAULT_CSA_PERCENTILE, MetricRecord, evaluate_all
from .raster import MultiBandImage, Raster, load_pnm, resample_nearest, save_pnm
from .report import (
    plain_file_name, plain_int, read_csv, render_reports, repeated_rows, table_end, write_csv
)
from .synthetic import SyntheticSpec, generate_pair

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "UsageError",
    "PairSpec",
    "BatchManifest",
    "load_manifest",
    "run_batch",
    "main",
    "entrypoint",
]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

THREADS_ENV = "PANFUSE_THREADS"

# The batch table's file name in output_dir, so no pair_id may take it.
_CSV_NAME = "metrics.csv"

# The glibc mallopt(3) calls of _keep_freed_planes: (<malloc.h> parameter,
# value). The mmap threshold is set explicitly because setting the trim
# threshold alone freezes glibc's dynamic mmap threshold at its 128 KiB
# start, which would map and unmap every plane.
_MALLOPT = (
    (-8, 1),  # M_ARENA_MAX
    (-3, 32 << 20),  # M_MMAP_THRESHOLD
    (-1, 256 << 20),  # M_TRIM_THRESHOLD
)


class UsageError(ValueError):
    """Bad manifest, bad method name, bad environment: exit code 2."""


@dataclass(frozen=True)
class PairSpec:
    """One manifest entry, its input paths resolved: the pair's files,
    sensor names, ground resolutions and location. Each field is a key
    of a manifest pair entry."""

    pair_id: str
    ms_path: Path
    pan_path: Path
    ms_resolution_m: float | None = None
    pan_resolution_m: float | None = None
    ms_sensor: str | None = None
    pan_sensor: str | None = None
    location: str | None = None

    def label(self) -> str:
        """One-line human-readable label for logs."""
        parts = [self.pair_id]
        if self.ms_sensor or self.pan_sensor:
            parts.append(f"{self.ms_sensor or '?'} / {self.pan_sensor or '?'}")
        if self.ms_resolution_m is not None and self.pan_resolution_m is not None:
            parts.append(f"({self.ms_resolution_m:g} m / {self.pan_resolution_m:g} m)")
        if self.location:
            parts.append(self.location)
        return " ".join(parts)


_PAIR_KEYS = {f.name for f in fields(PairSpec)}
# The optional keys of a pair entry and the kind each value must be.
_PAIR_KINDS = {
    key: get_args(hint)[0]
    for key, hint in get_type_hints(PairSpec).items()
    if type(None) in get_args(hint)
}
_KIND_NAMES = {float: "a positive number", str: "a printable string"}


@dataclass(frozen=True)
class BatchManifest:
    """A parsed manifest. Each field is a top-level manifest key; those
    without a default are required."""

    pairs: tuple[PairSpec, ...]
    methods: tuple[str, ...]
    output_dir: Path
    csa_percentile: float = DEFAULT_CSA_PERCENTILE


_MANIFEST_KEYS = {f.name for f in fields(BatchManifest)}
_REQUIRED_KEYS = [f.name for f in fields(BatchManifest) if f.default is MISSING]


def _manifest_str(entry: dict, key: str, where: str) -> str:
    value = entry.get(key)
    if not isinstance(value, str) or not value:
        raise UsageError(f"{where}: {key!r} must be a non-empty string")
    return value


def _file_system_name(value: str, label: str) -> str:
    """``value``, a manifest path, if the file system encoding carries it
    (only ASCII under the POSIX locale); one it cannot carry would fail
    at ``mkdir`` or read as a missing file."""
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        raise UsageError(
            f"{label} cannot be encoded in the file system encoding "
            f"{sys.getfilesystemencoding()!r}, got {value!r}"
        ) from None
    return value


def _is_real(value) -> bool:
    """A finite JSON number that fits a float: NaN, infinities and integers
    such as 10**400 fail the comparison."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _pair_id(entry: dict, where: str) -> str:
    """The pair id names the pair's output directory inside
    ``output_dir``, so it must be a plain file name."""
    pair_id = _manifest_str(entry, "pair_id", where)
    if not plain_file_name(pair_id):
        raise UsageError(f"{where}: 'pair_id' must be a plain file name, got {pair_id!r}")
    if pair_id == _CSV_NAME:
        raise UsageError(f"{where}: 'pair_id' {pair_id!r} is reserved for the metrics table")
    return pair_id


def _unique_keys(members: list[tuple[str, object]]) -> dict:
    """A manifest JSON object as a dict; a repeated key is a usage error,
    where ``json`` alone would keep the last value."""
    obj = {}
    for key, value in members:
        if key in obj:
            raise UsageError(f"manifest repeats key {key!r}")
        obj[key] = value
    return obj


def _usage(f, *args, **kwargs):
    """``f(*args, **kwargs)``; a ValueError from it becomes a UsageError (exit 2)."""
    try:
        return f(*args, **kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _check_percentile(value, name: str) -> float:
    if not _is_real(value) or not 0.0 < float(value) < 100.0:
        raise UsageError(f"{name} must be a number in (0, 100), got {value!r}")
    return float(value)


def load_manifest(path) -> BatchManifest:
    """Parse and validate a batch manifest JSON file.

    All validation happens up front: repeated keys, duplicate pair ids,
    unknown method names, unknown keys, and missing input files are
    rejected before any work starts.
    """
    manifest_path = Path(path)
    try:
        raw = json.loads(
            manifest_path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys
        )
    except OSError as e:
        raise UsageError(f"cannot read manifest: {e}") from None
    except UsageError:
        raise
    except (ValueError, RecursionError) as e:  # bad UTF-8, bad JSON, too deep
        raise UsageError(f"manifest is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise UsageError("manifest must be a JSON object")
    unknown = sorted(set(raw) - _MANIFEST_KEYS)
    if unknown:
        raise UsageError(f"unknown manifest keys: {', '.join(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise UsageError(f"manifest is missing {key!r}")

    if not isinstance(raw["methods"], list) or not raw["methods"]:
        raise UsageError("'methods' must be a non-empty list")
    methods = []
    for m in raw["methods"]:
        if not isinstance(m, str):
            raise UsageError(f"'methods' entries must be strings, got {m!r}")
        name = _usage(normalize_method, m)
        if name in methods:
            raise UsageError(f"duplicate method {name!r}")
        methods.append(name)

    if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        raise UsageError("'output_dir' must be a non-empty string")
    if "\0" in raw["output_dir"]:
        raise UsageError("'output_dir' must not contain a NUL character")
    # A JSON escape such as \ud800 decodes to a lone surrogate, which is
    # not text: neither a UTF-8 file name nor stdout can carry it.
    if any("\ud800" <= c <= "\udfff" for c in raw["output_dir"]):
        raise UsageError("'output_dir' must not contain a surrogate code point")
    base = manifest_path.parent
    output_dir = base / _file_system_name(raw["output_dir"], "'output_dir'")

    percentile = _check_percentile(
        raw.get("csa_percentile", DEFAULT_CSA_PERCENTILE), "'csa_percentile'"
    )

    if not isinstance(raw["pairs"], list) or not raw["pairs"]:
        raise UsageError("'pairs' must be a non-empty list")
    pairs: list[PairSpec] = []
    seen_ids = set()
    for index, entry in enumerate(raw["pairs"]):
        where = f"pairs[{index}]"
        if not isinstance(entry, dict):
            raise UsageError(f"{where}: must be a JSON object")
        unknown = sorted(set(entry) - _PAIR_KEYS)
        if unknown:
            raise UsageError(f"{where}: unknown keys: {', '.join(unknown)}")
        pair_id = _pair_id(entry, where)
        if pair_id in seen_ids:
            raise UsageError(f"{where}: duplicate pair_id {pair_id!r}")
        seen_ids.add(pair_id)
        ms_path, pan_path = (
            base / _file_system_name(_manifest_str(entry, key, where), f"{where}: {key!r}")
            for key in ("ms_path", "pan_path")
        )
        for p in (ms_path, pan_path):
            if not p.is_file():
                raise UsageError(f"{where}: input file not found: {p}")
        for key, kind in _PAIR_KINDS.items():
            value = entry.get(key)
            # Sensor names and locations reach the batch log: no terminal
            # escape sequence or lone surrogate, which stdout cannot encode.
            if kind is float:
                ok = _is_real(value) and value > 0
            else:
                ok = isinstance(value, str) and value.isprintable()
            if value is not None and not ok:
                raise UsageError(f"{where}: {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
        pair = PairSpec(**{**entry, "ms_path": ms_path, "pan_path": pan_path})
        ms_m, pan_m = pair.ms_resolution_m, pair.pan_resolution_m
        if ms_m is not None and pan_m is not None and ms_m < pan_m:
            raise UsageError(
                f"{where}: ms_resolution_m must be >= pan_resolution_m "
                "(MS is the coarser image)"
            )
        pairs.append(pair)

    return BatchManifest(
        pairs=tuple(pairs),
        methods=tuple(methods),
        output_dir=output_dir,
        csa_percentile=percentile,
    )


def _as_multiband(image) -> MultiBandImage:
    if isinstance(image, Raster):
        return MultiBandImage((image,))
    return image


def _load_pan(path) -> Raster:
    image = load_pnm(path)
    if not isinstance(image, Raster):
        raise ValueError(f"PAN input must be a single-band grayscale image: {path}")
    return image


def _load_pair(ms_path, pan_path) -> tuple[MultiBandImage, Raster]:
    """Load an MS/PAN pair with the MS resampled onto the PAN grid."""
    ms = _as_multiband(load_pnm(ms_path))
    pan = _load_pan(pan_path)
    if ms.width != pan.width or ms.height != pan.height:
        ms = resample_nearest(ms, pan.width, pan.height)
    return ms, pan


def _thread_count(pair_count: int) -> int:
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        threads = plain_int(env)
        if not threads:
            raise UsageError(f"{THREADS_ENV} must be a positive integer, got {env!r}")
        return min(threads, pair_count)
    return max(1, min(pair_count, _cpus_available()))


def _cpus_available() -> int:
    """The CPUs this process may run on (its affinity mask, where the OS
    has one), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The failures whose message alone says what went wrong; anything else is
# named by its type and its traceback is kept.
_EXPECTED_ERRORS = (ValueError, OSError)


def _failure(e: Exception, where: str) -> tuple[str, list[str]]:
    """A failed task's message and, for an unexpected failure, ``where``
    and the formatted traceback of ``e``; an expected one has none."""
    if isinstance(e, _EXPECTED_ERRORS):
        return str(e), []
    tb = f"{where}:\n" + "".join(traceback.format_exception(e))
    return f"{type(e).__name__}: {e}", [tb]


def _echo(line: str) -> None:
    """Print ``line`` to stdout, backslash-escaping each character that
    stdout's encoding cannot carry (``\\xfc`` for ``ü`` under the POSIX
    locale) rather than raising."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def _run_pair(pair: PairSpec, manifest: BatchManifest) -> tuple[list, list, int, list]:
    """Fuse and score one pair with every requested method; returns its
    records, its log lines, its count of failed tasks and the tracebacks
    of its unexpected failures.

    A load or output-directory failure fails every method of the pair; a
    single method failure, of any exception type, is logged and the
    remaining methods still run.
    """
    records: list[MetricRecord] = []
    lines = [pair.label()]
    try:
        ms, pan = _load_pair(pair.ms_path, pair.pan_path)
        pair_dir = manifest.output_dir / pair.pair_id
        pair_dir.mkdir(parents=True, exist_ok=True)
    except Exception as e:
        message, tracebacks = _failure(e, pair.pair_id)
        lines += [f"  {method}: failed: {message}" for method in manifest.methods]
        return records, lines, len(manifest.methods), tracebacks

    failed = 0
    tracebacks: list[str] = []
    for method in manifest.methods:
        # Drop the previous product, and the Laplacians memoised on its
        # bands, before the next one is built.
        fused = None
        try:
            fused = fuse(method, ms, pan)
            out_path = pair_dir / f"{method}.ppm"
            save_pnm(fused, out_path)
            records.extend(
                evaluate_all(ms, pan, fused, pair.pair_id, method, manifest.csa_percentile)
            )
        except Exception as e:
            failed += 1
            message, tb = _failure(e, f"{pair.pair_id}/{method}")
            lines.append(f"  {method}: failed: {message}")
            tracebacks += tb
        else:
            lines.append(f"  {method}: ok -> {out_path}")
    return records, lines, failed, tracebacks


def run_batch(manifest: BatchManifest) -> tuple[list, int]:
    """Run every pair/method combination, write the records to
    ``metrics.csv`` in ``output_dir`` and print each pair's log; returns
    (records, failed task count).

    Pairs run concurrently (thread count from PANFUSE_THREADS, default
    one per pair up to the number of CPUs this process may run on) but
    results are assembled in manifest order, so outputs and the CSV are
    deterministic. The tracebacks of unexpected failures go to stderr, in
    the same order.
    """
    threads = _thread_count(len(manifest.pairs))
    manifest.output_dir.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda p: _run_pair(p, manifest), manifest.pairs))

    records = [r for pair_records, *_ in results for r in pair_records]
    # Written before any log line, so that no printing failure can lose it,
    # and rewritten even when every task failed, so no earlier run's rows stay.
    write_csv(records, manifest.output_dir / _CSV_NAME)
    for _, lines, _, tracebacks in results:
        _echo("\n".join(lines))
        for tb in tracebacks:
            print(tb, end="", file=sys.stderr)
    return records, sum(pair_failed for _, _, pair_failed, _ in results)


def cmd_fuse(args) -> int:
    method = _usage(normalize_method, args.method)
    ms = _as_multiband(load_pnm(args.ms))
    pan = _load_pan(args.pan)
    fused = fuse(method, ms, pan)
    save_pnm(fused, args.out)
    _echo(f"{method}: {ms.width}x{ms.height} ms + {pan.width}x{pan.height} pan -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    method = _usage(normalize_method, args.method)
    percentile = _check_percentile(args.csa_percentile, "--csa-percentile")
    # Echoed to stdout: the printable rule of a manifest's labels.
    if not args.pair_id.isprintable():
        raise UsageError(
            "--pair-id must be printable: no control, format or separator "
            f"character but the space, and no undecodable byte, got {args.pair_id!r}"
        )
    _usage(table_end, args.csv)  # before any work: a file that is no table stays as it is
    ms, pan = _load_pair(args.ms, args.pan)
    fused = _as_multiband(load_pnm(args.fused))
    records = evaluate_all(ms, pan, fused, args.pair_id, method, percentile)
    write_csv(records, args.csv, append=True)
    _echo(f"wrote {len(records)} records for {args.pair_id}/{method} to {args.csv}")
    return EXIT_OK


def cmd_batch(args) -> int:
    manifest = load_manifest(args.manifest)
    records, failed = run_batch(manifest)
    _echo(f"wrote {len(records)} records to {manifest.output_dir / _CSV_NAME}")
    if failed:
        total = len(manifest.pairs) * len(manifest.methods)
        print(f"{failed} of {total} fusion tasks failed", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    spec = _usage(
        SyntheticSpec,
        seed=args.seed,
        width=args.width,
        height=args.height,
        scale_factor=args.scale,
        smoothing_passes=args.passes,
    )
    paths = generate_pair(spec, args.out)
    for p in paths:
        _echo(f"wrote {p}")
    return EXIT_OK


def cmd_report(args) -> int:
    records = _usage(read_csv, args.csv)
    repeated = repeated_rows(records)
    if repeated:
        print(
            f"warning: {repeated} repeated (pair_id, method, band, metric) rows; "
            "the last of each is charted",
            file=sys.stderr,
        )
    for p in render_reports(records, args.out):
        _echo(f"wrote {p}")
    return EXIT_OK


# Built once per process (1.3 ms of a ~55 ms `panfuse fuse` call): parsing
# leaves the parser as it was.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panfuse",
        description="Pan-sharpen multispectral imagery and score the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse one MS/PAN pair")
    p.add_argument("--ms", required=True, help="multispectral input (PPM/PGM)")
    p.add_argument("--pan", required=True, help="panchromatic input (PGM)")
    p.add_argument(
        "--method", required=True, help=f"one of: {', '.join(METHOD_NAMES)}"
    )
    p.add_argument("--out", required=True, help="fused output path (PPM)")
    p.set_defaults(handler=cmd_fuse)

    p = sub.add_parser("evaluate", help="score a fused product against its inputs")
    p.add_argument("--ms", required=True)
    p.add_argument("--pan", required=True)
    p.add_argument("--fused", required=True)
    p.add_argument("--pair-id", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--csv", required=True, help="CSV to append records to")
    p.add_argument(
        "--csa-percentile",
        type=float,
        default=DEFAULT_CSA_PERCENTILE,
        help="edge-class threshold percentile (default %(default)s)",
    )
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("batch", help="run a JSON manifest of pairs and methods")
    p.add_argument("--manifest", required=True)
    p.set_defaults(handler=cmd_batch)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic MS/PAN/reference trio")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--scale", type=int, default=4, help="MS downscale factor")
    p.add_argument("--passes", type=int, default=3, help="smoothing passes")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_gen_synthetic)

    p = sub.add_parser("report", help="render SVG charts from a metric CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True, help="directory for SVG files")
    p.set_defaults(handler=cmd_report)

    return parser


def _keep_freed_planes() -> None:
    """Have glibc keep freed image planes in this process's heap.

    By default glibc hands each freed 2-8 MB plane back to the OS, and the
    next plane faults its pages back in one by one. One arena, shared by
    the pair threads so that memory freed by one is reused by the other,
    a 32 MiB mmap threshold (glibc's largest; a 1024x1024 float64 plane is
    8 MiB) and a 256 MiB trim threshold keep freed planes for reuse.
    Setting the same values again changes nothing. Anything but glibc
    (musl, macOS, Windows), or a failed lookup, is left as it is.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # TypeError: Windows takes no None path
        return
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return
    for param, value in _MALLOPT:
        libc.mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_planes()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _EXPECTED_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as e:  # an image too big to allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
