"""Dataset ingestion for (smiles_1, smiles_2, label) interaction files.

Files are UTF-8, comma- or tab-delimited, with a header row naming the
columns smiles_1, smiles_2, label (extra columns are ignored). Rows
whose SMILES fall outside the supported subset are quarantined with the
parse error and the 1-based line the row starts on rather than failing
the load; structurally broken rows (missing fields, non-integer labels)
and bytes that are not UTF-8 text or not CSV abort it with a
MalformedRowError naming the file and line.

Loading reads and checks every row first, then scans each distinct
SMILES once with the one-pass scanner of :mod:`molbridge.smiles`. A
valid string's scan is kept as its packed record (see
:func:`molbridge.smiles.pack_scan`), and each sample carries the records
of its two drugs, shared by every row that names them. When the
distinct strings hold ``model.SCAN_FORK_CHARS`` characters or more, the
helper processes of :mod:`molbridge.parallel` scan contiguous slices of
them too, and the verdicts and records come back in order; on smaller
files the fork would cost more than it saves. A process that runs other
threads, a multi-threaded BLAS's among them, scans alone. Only the rows
a command goes on to use are featurized, by :func:`featurize_samples`,
in one batched decode of their distinct drugs' records; a sample built
by hand, without records, has its strings scanned there.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    EmptyDatasetError,
    MalformedRowError,
    MissingColumnError,
    SmilesError,
)
from . import model as m
from . import parallel as par
from .smiles import (
    FeaturedGraph, featurize_records, pack_scan, parse_int, scan_smiles)

REQUIRED_COLUMNS = ("smiles_1", "smiles_2", "label")

# Labels must lie below this. The class count is 1 + the largest label
# and sizes the classifier head, so one stray large label would make the
# model allocate a head that size; 10000 is far above the 86 interaction
# event types of the DeepDDI corpus.
MAX_CLASSES = 10_000


@dataclass
class DDISample:
    smiles_1: str
    smiles_2: str
    label: int
    # the drugs' packed scans, set by load_dataset; not part of equality
    record_1: bytes | None = field(default=None, compare=False, repr=False)
    record_2: bytes | None = field(default=None, compare=False, repr=False)


@dataclass
class QuarantinedRow:
    line: int
    reason: str


@dataclass
class LoadResult:
    samples: list[DDISample]
    n_classes: int
    quarantined: list[QuarantinedRow]


def dataset_digest(path) -> str:
    """sha256 of the raw file bytes, for tying metrics to exact data."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    """Read a delimited interaction file; returns usable samples, the
    class count C = 1 + max label, and the quarantine report."""
    text = read_utf8(path)
    if not text:
        raise EmptyDatasetError(f"{path}: empty file")
    header_line = text.split("\n", 1)[0].split("\r", 1)[0]
    delimiter = "\t" if "\t" in header_line else ","
    reader = _rows(path, csv.reader(io.StringIO(text, newline=""),
                                    delimiter=delimiter))
    _, header = next(reader)
    columns = [c.strip() for c in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise MissingColumnError(f"{path}: header lacks {', '.join(missing)}")
    idx = {c: columns.index(c) for c in REQUIRED_COLUMNS}
    width = max(idx.values()) + 1

    rows = []
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
        rows.append((line_no, row[idx["smiles_1"]].strip(),
                     row[idx["smiles_2"]].strip(), label))

    distinct = list(dict.fromkeys(s for _, s1, s2, _ in rows for s in (s1, s2)))
    verdicts = dict(zip(distinct, _verdicts(distinct)))
    samples: list[DDISample] = []
    quarantined: list[QuarantinedRow] = []
    for line_no, s1, s2, label in rows:
        reason, record_1 = verdicts[s1]
        if reason is None:
            reason, record_2 = verdicts[s2]
        if reason is not None:
            quarantined.append(QuarantinedRow(line_no, reason))
            continue
        samples.append(DDISample(s1, s2, label, record_1, record_2))

    if not samples:
        raise EmptyDatasetError(f"{path}: no usable samples", quarantined)
    n_classes = 1 + max(s.label for s in samples)
    return LoadResult(samples, n_classes, quarantined)


def _verdict(smiles: str) -> tuple[str | None, bytes | None]:
    """The scanner's error text for smiles and None, or None and the
    packed scan."""
    try:
        return None, pack_scan(scan_smiles(smiles))
    except SmilesError as exc:
        return str(exc), None


def _verdicts(strings: list[str]) -> list[tuple[str | None, bytes | None]]:
    """_verdict of each string, in order. Once the strings hold at least
    SCAN_FORK_CHARS characters, helper processes (see parallel.py) take
    the later contiguous slices of about equal length."""
    costs = [len(s) for s in strings]
    with par.Helpers([], {"verdict": lambda i: _verdict(strings[i])},
                     sum(costs) >= m.SCAN_FORK_CHARS) as helpers:
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


def featurize_samples(samples: list[DDISample]) -> list[tuple[FeaturedGraph, FeaturedGraph]]:
    """Featurize every sample in one batch from its drugs' records,
    scanning a distinct SMILES only when no sample carries its record;
    samples that share a SMILES share its graph."""
    records: dict[str, bytes | None] = {}
    for sample in samples:
        for text, record in ((sample.smiles_1, sample.record_1),
                             (sample.smiles_2, sample.record_2)):
            records[text] = records.get(text) or record
    graphs = dict(zip(records, featurize_records(
        [record or pack_scan(scan_smiles(text))
         for text, record in records.items()])))
    return [(graphs[s.smiles_1], graphs[s.smiles_2]) for s in samples]
