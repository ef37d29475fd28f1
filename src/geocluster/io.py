"""Dataset files, result persistence, and plot-ready exports.

Dataset schema: `individuals.csv` with header ``id,x,y,gang`` (gang may be
empty) and `contacts.csv` with header ``id_a,id_b``. Ids and group labels
are stripped of surrounding whitespace and may not hold a line break, so a
dataset that loads saves to files that load back to the same values.
Coordinates are stored in meters with full float precision (repr
round-trip). Reports are JSON with a fixed key order per command;
plot-ready exports are long-format CSV with header
``param,value,metric,mean,std``. All files are UTF-8 with LF newlines, so a
repeated run with the same seed is byte-identical.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .graph import Individual, SocialMatrix


@dataclass(frozen=True)
class DatasetFiles:
    individuals_csv: Path
    contacts_csv: Path

    @classmethod
    def in_dir(cls, directory) -> "DatasetFiles":
        d = Path(directory)
        return cls(d / "individuals.csv", d / "contacts.csv")


def load_dataset(files: DatasetFiles) -> tuple[list[Individual], SocialMatrix]:
    """Parse a dataset, deduplicating repeated contacts and rejecting
    self-contacts and contacts whose ids do not resolve."""
    individuals: list[Individual] = []
    index: dict[str, int] = {}
    for line_no, (ident, x, y, gang) in _read_rows(files.individuals_csv, ("id", "x", "y", "gang")):
        ident, gang = ident.strip(), gang.strip()
        if not ident:
            raise _parse_error(files.individuals_csv, line_no, "empty id")
        if any(c in ident + gang for c in "\r\n"):
            raise _parse_error(files.individuals_csv, line_no, "line break in an id or group label")
        if ident in index:
            raise _parse_error(files.individuals_csv, line_no, f"duplicate id {ident!r}")
        try:
            x, y = float(x), float(y)
        except ValueError:
            raise _parse_error(files.individuals_csv, line_no, "bad coordinate") from None
        index[ident] = len(individuals)
        individuals.append(Individual(id=ident, x=x, y=y, gang=gang or None))

    pairs: list[tuple[int, int]] = []
    for _, (a, b) in _read_rows(files.contacts_csv, ("id_a", "id_b")):
        a, b = a.strip(), b.strip()
        if a not in index:
            raise DataError(f"contact references unknown id {a!r}")
        if b not in index:
            raise DataError(f"contact references unknown id {b!r}")
        if a == b:
            raise DataError(f"self-contact for id {a!r}")
        pairs.append((index[a], index[b]))
    return individuals, SocialMatrix.from_pairs(len(individuals), pairs)


def _parse_error(path, line: int, message: str) -> DataError:
    return DataError(f"{path}:{line}: {message}")


def _read_rows(path, required) -> list[tuple[int, list[str]]]:
    """(first line number, required fields) for each nonblank row of a UTF-8 CSV,
    BOM or not; a byte that is not UTF-8, a field over the `csv` module's
    size limit, a header that repeats a name or a row whose field count
    differs from the header's is a `DataError` naming the file and line."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; its line is the last line of
        # that prefix plus one more character, split as the reader splits.
        prefix = io.StringIO(data[:exc.start].decode("utf-8") + "?", newline="")
        raise _parse_error(path, len(prefix.readlines()),
                           f"not UTF-8 ({exc.reason} {data[exc.start]:#04x})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    lines, first = [], 1
    try:
        for row in reader:
            # A row's own line is its first: a quoted line break moves
            # `line_num` on to the row's last line.
            lines.append((first, row))
            first = reader.line_num + 1
    except csv.Error as exc:
        raise _parse_error(path, reader.line_num, str(exc)) from None
    header = lines[0][1] if lines else []
    missing = [c for c in required if c not in header]
    if missing:
        raise _parse_error(path, 1, f"missing required columns {missing}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise _parse_error(path, 1, f"repeated columns {repeated}")
    cols = [header.index(c) for c in required]
    rows = []
    for line_no, row in lines[1:]:
        if not row:
            continue
        if len(row) != len(header):
            raise _parse_error(path, line_no, f"has {len(row)} fields, not {len(header)}")
        rows.append((line_no, [row[i] for i in cols]))
    return rows


def save_dataset(individuals: Sequence[Individual], social: SocialMatrix,
                 files: DatasetFiles) -> None:
    with open(files.individuals_csv, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "x", "y", "gang"])
        for p in individuals:
            writer.writerow([p.id, repr(p.x), repr(p.y), p.gang or ""])
    with open(files.contacts_csv, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id_a", "id_b"])
        ids = np.array([p.id for p in individuals], dtype=object)
        writer.writerows(ids[social.ij].tolist())


def _plain(value):
    """`json.dumps` hook: numpy arrays and scalars as plain JSON values."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def save_results(report: dict, path) -> None:
    """Write a run report as stable, diffable JSON."""
    path = Path(path)
    text = json.dumps(report, indent=2, ensure_ascii=False, default=_plain)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_results(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_plot_csv(rows: Sequence[dict], path) -> None:
    """Long-format plot export: one (param, value, metric) measurement per row."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param", "value", "metric", "mean", "std"])
        for row in rows:
            writer.writerow([
                row["param"], repr(float(row["value"])), row["metric"],
                repr(float(row["mean"])), repr(float(row["std"])),
            ])
