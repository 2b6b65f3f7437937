"""Compare two artifact trees by number, for trees that may differ by float round-off.

Usage: ``python3 tools/compare_artifacts.py A B``

``A`` is the reference tree (the parent's), ``B`` the one compared with it,
such as two outputs of ``tools/parity_artifacts.py``.  The tool lists the
files present in only one tree.  For each file present in both whose bytes
differ, it prints the largest absolute difference, that difference relative
to the largest magnitude in ``A``'s file, and how many values differ, when
the two files differ only in their numbers:

- ``.json``: equal structure, keys and non-number leaves; the numbers compared;
- ``.csv``: equal row and cell counts; cells that parse as floats in both
  files compared, every other cell equal as text;
- ``.pfm``: planes of one shape, read with ``seglab.imgio.read_pfm``;
- ``.ckpt``: byte-equal JSON header lines; the float64 blocks compared.

Any other difference, in those files or in a file of any other kind, is
reported as non-numeric.  The exit code is 1 if the file sets differ or any
file differs in non-numeric content, and 0 otherwise, whatever the size of a
numeric difference.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from seglab.errors import ValidationError  # noqa: E402
from seglab.imgio import read_pfm  # noqa: E402


class NonNumeric(Exception):
    """The two files differ in something other than their numbers."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_numbers(a, b, at: str = "$") -> tuple[list[float], list[float]]:
    """The paired number leaves of two JSON values of equal structure."""
    if _is_number(a) and _is_number(b):
        return [float(a)], [float(b)]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise NonNumeric(f"keys differ at {at}")
        pairs = [_json_numbers(a[k], b[k], f"{at}.{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise NonNumeric(f"lengths differ at {at}")
        pairs = [_json_numbers(x, y, f"{at}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif a == b and type(a) is type(b):
        return [], []
    else:
        raise NonNumeric(f"values differ at {at}")
    return [x for p in pairs for x in p[0]], [y for p in pairs for y in p[1]]


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_numbers(a: str, b: str) -> tuple[list[float], list[float]]:
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        raise NonNumeric("row or cell counts differ")
    xs, ys = [], []
    for line, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
        for ca, cb in zip(ra, rb):
            x, y = _float(ca), _float(cb)
            if x is not None and y is not None:
                xs.append(x)
                ys.append(y)
            elif ca != cb:
                raise NonNumeric(f"text cells differ on line {line}")
    return xs, ys


def _ckpt_numbers(a: bytes, b: bytes) -> tuple[np.ndarray, np.ndarray]:
    head_a, _, block_a = a.partition(b"\n")
    head_b, _, block_b = b.partition(b"\n")
    if head_a != head_b:
        raise NonNumeric("checkpoint headers differ")
    if len(block_a) != len(block_b) or len(block_a) % 8:
        raise NonNumeric("parameter blocks differ in length")
    return np.frombuffer(block_a, dtype="<f8"), np.frombuffer(block_b, dtype="<f8")


def _pfm_numbers(a: Path, b: Path) -> tuple[np.ndarray, np.ndarray]:
    try:
        x, y = read_pfm(a), read_pfm(b)
    except ValidationError as exc:
        raise NonNumeric(f"unreadable PFM: {exc}") from exc
    if x.shape != y.shape:
        raise NonNumeric(f"plane shapes differ: {x.shape} vs {y.shape}")
    return x.astype(np.float64), y.astype(np.float64)


def numbers(a: Path, b: Path) -> tuple[np.ndarray, np.ndarray]:
    """The paired numbers of two files that differ only in them; else NonNumeric."""
    suffix = a.suffix
    if suffix == ".pfm":
        return _pfm_numbers(a, b)
    if suffix == ".ckpt":
        return _ckpt_numbers(a.read_bytes(), b.read_bytes())
    parse = {".json": lambda ta, tb: _json_numbers(json.loads(ta), json.loads(tb)), ".csv": _csv_numbers}.get(suffix)
    if parse is None:
        raise NonNumeric("not a numeric artifact kind")
    try:
        xs, ys = parse(a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8"))
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise NonNumeric(f"unreadable {suffix[1:]}: {exc}") from exc
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)


def difference(x: np.ndarray, y: np.ndarray) -> tuple[float, float, int]:
    """(max |x - y|, that over max |x|, count of unequal values); equal
    values, NaN against NaN included, differ by 0."""
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore"):  # inf - inf, where same is true
        diff = np.where(same, 0.0, np.abs(x - y))
    diff[np.isnan(diff)] = np.inf
    largest = float(diff.max()) if diff.size else 0.0
    scale = float(np.nanmax(np.abs(x))) if x.size else 0.0
    relative = largest / scale if scale > 0 else (0.0 if largest == 0 else float("inf"))
    return largest, relative, int((~same).sum())


def compare(a_root: Path, b_root: Path, out=sys.stdout) -> int:
    """Print the comparison of two trees; return the exit code."""
    files_a = {p.relative_to(a_root) for p in a_root.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b_root) for p in b_root.rglob("*") if p.is_file()}
    status = 0
    for rel in sorted(files_a - files_b):
        print(f"only in {a_root}: {rel}", file=out)
        status = 1
    for rel in sorted(files_b - files_a):
        print(f"only in {b_root}: {rel}", file=out)
        status = 1
    common = sorted(files_a & files_b)
    differing = 0
    for rel in common:
        a, b = a_root / rel, b_root / rel
        if a.read_bytes() == b.read_bytes():
            continue
        differing += 1
        try:
            x, y = numbers(a, b)
        except NonNumeric as exc:
            print(f"{rel}: non-numeric difference ({exc})", file=out)
            status = 1
            continue
        largest, relative, count = difference(x, y)
        print(f"{rel}: max |diff| {largest:.3g}, / max|A| {relative:.3g}, {count} of {x.size} values differ", file=out)
    print(f"{len(common)} files in both trees, {len(common) - differing} byte-identical, {differing} differ", file=out)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="reference tree, such as the parent's")
    parser.add_argument("b", type=Path, help="tree compared with it")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    return compare(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
