"""Dataset CSV ingestion and the in-memory dataset container.

Expected layout: header ``id,label,<numeric columns...>,text`` with the text
column last (quoted when it contains commas).  Rows with a missing label or a
malformed numeric value are skipped with a line-numbered diagnostic, or abort
the run in strict mode.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    label: int
    features: tuple[float, ...]
    text: str


@dataclass
class Dataset:
    ids: list[str]
    labels: np.ndarray
    numeric: np.ndarray
    texts: list[str]

    @property
    def m(self) -> int:
        return len(self.ids)

    @property
    def n_numeric(self) -> int:
        return self.numeric.shape[1]

    @classmethod
    def from_records(cls, records: list[DatasetRecord]) -> "Dataset":
        return cls(
            ids=[r.id for r in records],
            labels=np.array([r.label for r in records], dtype=int),
            numeric=np.array([r.features for r in records], dtype=float).reshape(len(records), -1),
            texts=[r.text for r in records],
        )


def ingest_csv(path: str | Path, strict: bool = False) -> tuple[list[DatasetRecord], list[str]]:
    """Parse a dataset file; returns (records, per-row diagnostics)."""
    path = Path(path)
    records: list[DatasetRecord] = []
    diagnostics: list[str] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "id" or header[1] != "label" or header[-1] != "text":
            raise SchemaError(
                f"{path}: header must be 'id,label,<features...>,text', got {header}")
        n_features = len(header) - 3
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            problem = None
            if len(row) != len(header):
                problem = f"expected {len(header)} columns, got {len(row)}"
            elif row[1].strip() not in ("0", "1"):
                problem = f"label must be 0 or 1, got {row[1]!r}"
            else:
                try:
                    features = tuple(float(v) for v in row[2:2 + n_features])
                except ValueError as exc:
                    problem = f"bad numeric value: {exc}"
            if problem is not None:
                message = f"{path}:{lineno}: {problem}"
                if strict:
                    raise ParseError(message)
                diagnostics.append(message)
                continue
            records.append(DatasetRecord(
                id=row[0], label=int(row[1]), features=features, text=row[-1]))
    return records, diagnostics


def load_dataset(path: str | Path, strict: bool = False) -> tuple[Dataset, list[str]]:
    records, diagnostics = ingest_csv(path, strict=strict)
    if not records:
        raise SchemaError(f"{path}: no usable rows")
    widths = {len(r.features) for r in records}
    if len(widths) != 1:
        raise SchemaError(f"{path}: inconsistent numeric widths {sorted(widths)}")
    return Dataset.from_records(records), diagnostics


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a UTF-8 CSV file with Unix line ends: the header, then the rows."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset_csv(path: str | Path, ids, labels, numeric, texts) -> None:
    numeric = np.asarray(numeric, dtype=float)
    n = numeric.shape[1]
    write_csv(path, ["id", "label"] + [f"f{j + 1}" for j in range(n)] + ["text"],
              ([ids[i], int(labels[i])] + [repr(float(v)) for v in numeric[i]] + [texts[i]]
               for i in range(len(ids))))
