"""Dataset ingestion for (smiles_1, smiles_2, label) interaction files.

Files are UTF-8, comma- or tab-delimited, with a header row naming the
columns smiles_1, smiles_2, label (extra columns are ignored). Rows
whose SMILES fall outside the supported subset are quarantined with the
parse error and the 1-based line the row starts on rather than failing
the load; structurally broken rows (missing fields, non-integer labels)
and bytes that are not UTF-8 text or not CSV abort it with a
MalformedRowError naming the file and line.

Loading streams the rows into a :class:`PairTable`: each distinct
SMILES once, and three int32 numbers per row, so a corpus costs memory
per drug, not per row. Every row is read and checked first, then each
distinct SMILES is scanned once with the one-pass scanner of
:mod:`molbridge.smiles`, and a valid string's scan is kept in the table
as its packed record (see :func:`molbridge.smiles.pack_scan`). When the
distinct strings hold ``SCAN_FORK_CHARS`` characters or more, the
helper processes of :mod:`molbridge.parallel` scan contiguous slices of
them too, and the verdicts and records come back in order; on smaller
files the fork would cost more than it saves. A process that runs other
threads, a multi-threaded BLAS's among them, scans alone. Only the rows
a command goes on to use are featurized, by :func:`featurize_samples`,
which decodes each of their drugs once from its record; samples built
by hand have no records, and their strings are scanned there.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (EmptyDatasetError, MalformedRowError,
                     MissingColumnError, MolBridgeError, SmilesError)
from . import parallel as par
from .smiles import (
    FeaturedGraph, featurize_records, pack_scan, parse_int, scan_smiles)

REQUIRED_COLUMNS = ("smiles_1", "smiles_2", "label")

# Labels must lie below this. The class count is 1 + the largest label
# and sizes the classifier head, so one stray large label would make the
# model allocate a head that size; 10000 is far above the 86 interaction
# event types of the DeepDDI corpus.
MAX_CLASSES = 10_000

DIGEST_BLOCK = 1 << 20      # bytes dataset_digest reads at a time


@dataclass(slots=True)
class DDISample:
    smiles_1: str
    smiles_2: str
    label: int


class PairTable(Sequence):
    """A dataset's rows as indices into its distinct drugs: `smiles` and
    `records` (packed scans, None where none was kept) per drug, each
    drug named by some row, and the int32 arrays `drug_1`, `drug_2` and
    `label` per row. Row i reads as a DDISample built on access, and a
    slice as the table of its rows; a table equals any sequence of the
    same samples."""

    def __init__(self, smiles: list[str], records: list[bytes | None],
                 drug_1, drug_2, label):
        self.smiles, self.records = smiles, records
        self.drug_1, self.drug_2, self.label = (
            np.asarray(x, np.int32) for x in (drug_1, drug_2, label))

    @classmethod
    def of(cls, samples: PairTable | list[DDISample]) -> PairTable:
        """samples if a table already, else their table without records."""
        if isinstance(samples, PairTable):
            return samples
        index: dict[str, int] = {}
        drugs = [index.setdefault(text, len(index)) for s in samples
                 for text in (s.smiles_1, s.smiles_2)]
        return cls(list(index), [None] * len(index), drugs[::2], drugs[1::2],
                   [s.label for s in samples])

    def take(self, rows) -> PairTable:
        """The table of the given rows, in that order, over the drugs they
        name (in this table's order): the others can be freed with it.
        Refuses a row outside [0, len)."""
        rows = np.asarray(rows, np.intp)
        outside = rows[(rows < 0) | (rows >= len(self))]
        if outside.size:
            raise ValueError(f"row {outside[0]} outside the sample list")
        drug_1, drug_2 = self.drug_1[rows], self.drug_2[rows]
        named = np.zeros(len(self.smiles), bool)
        named[drug_1] = named[drug_2] = True
        index = np.cumsum(named, dtype=np.int32) - 1    # where each one goes
        drugs = np.flatnonzero(named).tolist()
        return PairTable([self.smiles[d] for d in drugs],
                         [self.records[d] for d in drugs], index[drug_1],
                         index[drug_2], self.label[rows])

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, i: int | slice) -> DDISample | PairTable:
        if isinstance(i, slice):
            return self.take(range(len(self))[i])
        return DDISample(self.smiles[self.drug_1[i]],
                         self.smiles[self.drug_2[i]], int(self.label[i]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class QuarantinedRow:
    line: int
    reason: str


@dataclass
class LoadResult:
    samples: PairTable
    n_classes: int
    quarantined: list[QuarantinedRow]


def dataset_digest(path) -> str:
    """sha256 of the raw file bytes, for tying metrics to exact data,
    read DIGEST_BLOCK bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, DIGEST_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def read_utf8(path) -> str:
    """The file's text less one leading byte-order mark; bytes that are not
    UTF-8 raise a MalformedRowError naming the file, line and offset."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise MalformedRowError(
            f"{path}:{line}: not UTF-8 text (byte {raw[exc.start]:#04x} at "
            f"offset {exc.start})") from None


def load_dataset(path) -> LoadResult:
    """Read a delimited interaction file; returns its usable rows as a
    PairTable, the class count C = 1 + max label, and the quarantine
    report."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            smiles, rows = _read(path, fh)
    except (UnicodeDecodeError, MolBridgeError):
        read_utf8(path)     # a byte that is not UTF-8 is reported first
        raise
    drug_1, drug_2, label, line = (np.frombuffer(r, np.intc) for r in rows)
    reasons, records = zip(*_verdicts(smiles)) if smiles else ((), ())
    bad = np.array([reason is not None for reason in reasons], bool)
    refused = bad[drug_1] | bad[drug_2]
    # a row is quarantined with the error of its first failing SMILES
    first = np.where(bad[drug_1], drug_1, drug_2)[refused]
    quarantined = [QuarantinedRow(at, reasons[drug]) for at, drug in
                   zip(line[refused].tolist(), first.tolist())]
    if refused.all():
        raise EmptyDatasetError(f"{path}: no usable samples", quarantined)
    table = PairTable(smiles, list(records), drug_1, drug_2, label)
    if refused.any():   # a drug may now be named by no row
        table = table.take(np.flatnonzero(~refused))
    return LoadResult(table, 1 + int(table.label.max()), quarantined)


def _read(path, fh) -> tuple[list[str], list[array]]:
    """The distinct SMILES of fh's rows, in first-seen order, and the
    rows' drug_1, drug_2, label and line columns."""
    header_line = fh.readline()
    if not header_line:
        raise EmptyDatasetError(f"{path}: empty file")
    delimiter = "\t" if "\t" in header_line else ","
    reader = _rows(path, csv.reader(itertools.chain([header_line], fh),
                                    delimiter=delimiter))
    _, header = next(reader)
    columns = [c.strip() for c in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise MissingColumnError(f"{path}: header lacks {', '.join(missing)}")
    idx = {c: columns.index(c) for c in REQUIRED_COLUMNS}
    width = max(idx.values()) + 1

    index: dict[str, int] = {}
    rows = [array("i") for _ in range(4)]
    drug_1, drug_2, labels, lines = rows
    for line_no, row in reader:
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) < width:
            raise MalformedRowError(
                f"{path}:{line_no}: expected {width}+ fields, got {len(row)}")
        raw_label = row[idx["label"]].strip()
        try:
            label = parse_int(raw_label)
        except ValueError:
            raise MalformedRowError(
                f"{path}:{line_no}: label {raw_label!r} is not an integer") from None
        if label < 0:
            raise MalformedRowError(f"{path}:{line_no}: negative label {label}")
        if label >= MAX_CLASSES:
            raise MalformedRowError(
                f"{path}:{line_no}: label {label} is not below the class "
                f"cap {MAX_CLASSES}")
        drug_1.append(index.setdefault(row[idx["smiles_1"]].strip(), len(index)))
        drug_2.append(index.setdefault(row[idx["smiles_2"]].strip(), len(index)))
        labels.append(label)
        lines.append(line_no)
    return list(index), rows


def _verdict(smiles: str) -> tuple[str | None, bytes | None]:
    """The scanner's error text for smiles and None, or None and the
    packed scan."""
    try:
        return None, pack_scan(scan_smiles(smiles))
    except SmilesError as exc:
        return str(exc), None


# Least total length of a file's distinct SMILES at which _verdicts forks
# helpers to scan them. On 3-50-atom drugs (2 cores, 1 BLAS thread, after
# an eval) scanning took 0.5-0.8 us a character, and a helper broke even
# at about 19k characters and saved a fifth of the scan at 38k.
SCAN_FORK_CHARS = 25_000


def _verdicts(strings: list[str]) -> list[tuple[str | None, bytes | None]]:
    """_verdict of each string, in order. Once the strings hold at least
    SCAN_FORK_CHARS characters, helper processes (see parallel.py) take
    the later contiguous slices of about equal length."""
    costs = [len(s) for s in strings]
    with par.Helpers([], {"verdict": lambda i: _verdict(strings[i])},
                     sum(costs) >= SCAN_FORK_CHARS) as helpers:
        return list(helpers.run("verdict", range(len(strings)), costs))


def _rows(path, reader):
    """(line, row) for each of the reader's rows, with the line the row
    starts on (a quoted field may span lines), and a csv error (such as
    a field over csv's size limit) turned into a MalformedRowError
    naming the line."""
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedRowError(f"{path}:{reader.line_num}: {exc}") from None


def featurize_samples(samples: PairTable | list[DDISample]
                      ) -> list[tuple[FeaturedGraph, FeaturedGraph]]:
    """Each row's two graphs, decoding each distinct drug of the rows once
    from its record (scanning its SMILES if it has none) in one batch;
    rows that share a drug share its graph."""
    table = PairTable.of(samples)
    graphs = featurize_records([record or pack_scan(scan_smiles(text))
                                for text, record in zip(table.smiles,
                                                        table.records)])
    return [(graphs[a], graphs[b]) for a, b in
            zip(table.drug_1.tolist(), table.drug_2.tolist())]
