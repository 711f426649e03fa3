import os
import random
import sys

import numpy as np
import pytest

from molbridge import data
from molbridge import model as m
from molbridge import parallel as par
from molbridge import smiles
from molbridge.data import (
    MAX_CLASSES,
    DDISample,
    QuarantinedRow,
    dataset_digest,
    featurize_samples,
    load_dataset,
)
from molbridge.errors import (
    EmptyDatasetError,
    MalformedRowError,
    MissingColumnError,
    SmilesError,
)
from molbridge.joint import stack_joints
from molbridge.smiles import featurize, parse_smiles, scan_smiles

from conftest import CORPUS, ROOT


@pytest.fixture(scope="module")
def bench_corpus():
    """The benchmark's seeded drug generator, perfbench/corpus.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    return corpus


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def count_scans(monkeypatch) -> list[str]:
    """Record every scan_smiles call, the loader's and the scanner
    module's own; returns the list of scanned strings."""
    scanned = []

    def counting(text):
        scanned.append(text)
        return scan_smiles(text)

    monkeypatch.setattr(data, "scan_smiles", counting)
    monkeypatch.setattr(smiles, "scan_smiles", counting)
    return scanned


BOM = "\ufeff".encode("utf-8")
WELL_FORMED = "smiles_1,smiles_2,label\nCCO,CN,0\nCC,CCN,1\nC,O,1\n"


class TestLoad:
    def test_well_formed(self, tmp_path):
        result = load_dataset(write(tmp_path, WELL_FORMED))
        assert len(result.samples) == 3
        assert result.n_classes == 2
        assert result.quarantined == []
        assert result.samples[0].smiles_1 == "CCO"
        assert result.samples[0].label == 0

    def test_file_order_preserved(self, tmp_path):
        result = load_dataset(write(tmp_path, WELL_FORMED))
        assert [s.smiles_2 for s in result.samples] == ["CN", "CCN", "O"]

    def test_quarantine_keeps_rest(self, tmp_path):
        text = ("smiles_1,smiles_2,label\n"
                "CCO,CN,0\n"
                "C@C,CN,1\n"        # stereo token, unsupported
                "CC,CC,1\n")
        result = load_dataset(write(tmp_path, text))
        assert len(result.samples) == 2
        assert len(result.quarantined) == 1
        assert result.quarantined[0].line == 3
        assert "position" in result.quarantined[0].reason

    def test_form_feed_in_field_is_quarantined(self, tmp_path):
        # csv reads a form feed as part of the field, not as a line break
        text = "smiles_1,smiles_2,label\nC\x0cC,CN,1\nCC,CN,0\n"
        result = load_dataset(write(tmp_path, text))
        assert [q.line for q in result.quarantined] == [2]
        assert [s.smiles_1 for s in result.samples] == ["CC"]

    def test_quoted_field_keeps_its_newline(self, tmp_path):
        # the row on lines 2-3 is reported at line 2, and later rows keep
        # their own line numbers
        text = ('smiles_1,smiles_2,label\n"C\nC",CN,1\nCC,CN,0\n'
                "C@C,CN,1\n")
        result = load_dataset(write(tmp_path, text))
        assert [q.line for q in result.quarantined] == [2, 5]
        assert [s.smiles_1 for s in result.samples] == ["CC"]

    def test_crlf_line_numbers(self, tmp_path):
        text = "smiles_1,smiles_2,label\r\nCC,CN,0\r\nC@C,CN,1\r\n"
        result = load_dataset(write(tmp_path, text))
        assert [q.line for q in result.quarantined] == [3]
        assert [s.smiles_2 for s in result.samples] == ["CN"]

    def test_tab_delimited(self, tmp_path):
        text = "smiles_1\tsmiles_2\tlabel\nCCO\tCN\t2\n"
        result = load_dataset(write(tmp_path, text))
        assert result.n_classes == 3

    def test_extra_columns_ignored(self, tmp_path):
        text = "id,smiles_1,smiles_2,label\n7,CCO,CN,0\n8,C,N,1\n"
        result = load_dataset(write(tmp_path, text))
        assert len(result.samples) == 2

    def test_blank_lines_skipped(self, tmp_path):
        result = load_dataset(write(tmp_path, WELL_FORMED + "\n\n"))
        assert len(result.samples) == 3


class TestScanOnce:
    # a pool of 12 valid and 4 invalid strings drawn into 300 rows, so
    # every string, the invalid ones too, recurs on many rows
    POOL = CORPUS[:12] + ["C1CC", "C(C", "Xx", "CC)"]

    def pooled(self, tmp_path):
        rng = random.Random(5)
        rows = [(rng.choice(self.POOL), rng.choice(self.POOL),
                 rng.randrange(3)) for _ in range(300)]
        text = "smiles_1,smiles_2,label\n" + "".join(
            f"{a},{b},{c}\n" for a, b, c in rows)
        return rows, write(tmp_path, text)

    def test_each_distinct_string_scanned_once(self, tmp_path, monkeypatch):
        # loading and then featurizing what it kept scans each string of
        # the file once, the loader's scans being all the command makes
        rows, path = self.pooled(tmp_path)
        monkeypatch.setattr(par, "processes", lambda: 1)
        scanned = count_scans(monkeypatch)
        featurize_samples(load_dataset(path).samples)
        assert sorted(scanned) == sorted({s for row in rows for s in row[:2]})
        assert len(scanned) == len(self.POOL)

    def test_report_equals_row_by_row_scan(self, tmp_path):
        rows, path = self.pooled(tmp_path)
        result = load_dataset(path)
        # the row-by-row scan: each row is quarantined with the error of
        # its first failing SMILES, or kept
        want, kept = [], []
        for line, (s1, s2, label) in enumerate(rows, start=2):
            try:
                scan_smiles(s1)
                scan_smiles(s2)
            except SmilesError as exc:
                want.append(QuarantinedRow(line, str(exc)))
                continue
            kept.append((s1, s2, label))
        assert result.quarantined == want
        assert len(want) > 100
        assert [(s.smiles_1, s.smiles_2, s.label)
                for s in result.samples] == kept


class Always(random.Random):
    """A generator whose choice() always picks `kind`, so
    corpus.make_invalid makes a string of that kind."""

    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind

    def choice(self, seq):
        return self.kind


class TestScanOnHelpers:
    """A file whose distinct SMILES hold SCAN_FORK_CHARS characters or
    more is scanned on helper processes too, with the serial result."""

    # the reason each corpus.INVALID_KINDS string is quarantined with
    REASONS = ("unsupported bracket atom [C@H]", "unsupported token '.'",
               "unsupported token '/'", "unsupported bracket atom [13CH3]",
               "unsupported token '*'", "unclosed ring bond(s): [98]",
               "molecule exceeds 50 atoms")

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory, bench_corpus):
        rng = random.Random(17)
        drugs = [bench_corpus.make_drug(rng, k) for k in
                 bench_corpus.spread_sizes(rng, 900, 3, bench_corpus.ATOM_CAP)]
        rows = [(drugs[2 * i], drugs[2 * i + 1], i % 7) for i in range(450)]
        rows += rows[100:160]                   # strings that recur
        invalid = [bench_corpus.make_invalid(Always(kind), drug)
                   for kind in bench_corpus.INVALID_KINDS
                   for drug in drugs[:3]]
        for j, bad in enumerate(invalid):       # first, second or both
            s1, s2, label = rows[5 + 23 * j]
            rows[5 + 23 * j] = ((bad, s2), (s1, bad), (bad, bad))[j % 3] + (
                label,)
        distinct = {s for row in rows for s in row[:2]}
        assert sum(map(len, distinct)) >= m.SCAN_FORK_CHARS
        path = tmp_path_factory.mktemp("big") / "big.csv"
        path.write_text("smiles_1,smiles_2,label\n" + "".join(
            f"{a},{b},{c}\n" for a, b, c in rows))
        return path, len(invalid)

    def processes(self, monkeypatch, count: int) -> list[int]:
        """Patch parallel.processes to count; returns the list of helper
        pids forked from here on."""
        monkeypatch.setattr(par, "processes", lambda: count)
        forked, fork = [], os.fork

        def counting():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        return forked

    def test_result_equal_for_one_and_two_processes(self, big, monkeypatch):
        path, n_invalid = big
        results = []
        for count in (1, 2):
            forked = self.processes(monkeypatch, count)
            results.append(load_dataset(path))
            assert len(forked) == count - 1
            assert_no_child()
        serial, parallel = results
        assert parallel == serial
        # sample equality leaves the kept scans out
        records = [[(s.record_1, s.record_2) for s in result.samples]
                   for result in results]
        assert records[0] == records[1]
        assert all(r for pair in records[0] for r in pair)
        assert len(serial.samples) == 510 - n_invalid
        assert serial.n_classes == 7
        reasons = [row.reason for row in serial.quarantined]
        assert len(reasons) == n_invalid
        for want in self.REASONS:
            assert any(want in reason for reason in reasons), want

    def test_featurize_scans_nothing_after_helpers(self, big, monkeypatch):
        forked = self.processes(monkeypatch, 2)
        samples = load_dataset(big[0]).samples
        assert forked
        assert_no_child()
        scanned = count_scans(monkeypatch)
        pairs = featurize_samples(samples)
        assert scanned == []
        for sample, graphs in list(zip(samples, pairs))[::50]:
            for text, g in zip((sample.smiles_1, sample.smiles_2), graphs):
                assert g.features.tobytes() == \
                    featurize(parse_smiles(text)).features.tobytes()

    def test_late_bad_label_raises_its_line(self, big, tmp_path, monkeypatch):
        lines = big[0].read_text().splitlines()
        path = write(tmp_path, "\n".join(lines + ["C,CC,x"]) + "\n")
        forked = self.processes(monkeypatch, 2)
        with pytest.raises(MalformedRowError,
                           match=rf":{len(lines) + 1}: label 'x' is not"):
            load_dataset(path)
        assert not forked           # every row is read before any scan
        assert_no_child()

    def test_helper_error_leaves_no_child(self, big, monkeypatch):
        rows = [line.split(",") for line in
                big[0].read_text().splitlines()[1:]]
        last = list(dict.fromkeys(s for row in rows for s in row[:2]))[-1]

        def scan(text):
            if text == last:        # the helper's slice ends with it
                raise RuntimeError("scanner broke")
            return scan_smiles(text)

        monkeypatch.setattr(data, "scan_smiles", scan)
        forked = self.processes(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="scanner broke"):
            load_dataset(big[0])
        assert forked
        assert_no_child()

    def test_no_usable_samples_keeps_the_report(self, big, tmp_path,
                                                monkeypatch):
        header, *lines = big[0].read_text().splitlines()
        path = write(tmp_path, "\n".join(
            [header, *("*" + line for line in lines)]) + "\n")
        forked = self.processes(monkeypatch, 2)
        with pytest.raises(EmptyDatasetError, match="no usable samples") as exc:
            load_dataset(path)
        assert forked
        assert [row.line for row in exc.value.quarantined] == list(
            range(2, len(lines) + 2))
        assert_no_child()


class TestLoadErrors:
    def test_missing_column(self, tmp_path):
        with pytest.raises(MissingColumnError):
            load_dataset(write(tmp_path, "a,b\nCCO,CN\n"))

    def test_missing_header_entirely(self, tmp_path):
        with pytest.raises(MissingColumnError):
            load_dataset(write(tmp_path, "CCO,CN,0\nCC,CC,1\n"))

    def test_non_integer_label(self, tmp_path):
        with pytest.raises(MalformedRowError) as exc:
            load_dataset(write(tmp_path, "smiles_1,smiles_2,label\nCCO,CN,x\n"))
        assert ":2:" in str(exc.value)

    # int() reads these as 10, 3 and 2
    @pytest.mark.parametrize("label", ["1_0", "\u0663", "+2"])
    def test_label_takes_only_ascii_decimal(self, tmp_path, label):
        path = tmp_path / "data.csv"
        path.write_text(f"smiles_1,smiles_2,label\nCCO,CN,0\nCC,CO,{label}\n",
                        encoding="utf-8")
        with pytest.raises(MalformedRowError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}:3: label {label!r} is not an integer"

    def test_negative_label(self, tmp_path):
        with pytest.raises(MalformedRowError):
            load_dataset(write(tmp_path, "smiles_1,smiles_2,label\nCCO,CN,-1\n"))

    def test_label_at_class_cap(self, tmp_path):
        text = f"smiles_1,smiles_2,label\nCCO,CN,0\nCC,CO,{MAX_CLASSES}\n"
        with pytest.raises(MalformedRowError) as exc:
            load_dataset(write(tmp_path, text))
        assert ":3:" in str(exc.value)
        below = text.replace(str(MAX_CLASSES), str(MAX_CLASSES - 1))
        assert load_dataset(write(tmp_path, below)).n_classes == MAX_CLASSES

    def test_short_row(self, tmp_path):
        with pytest.raises(MalformedRowError):
            load_dataset(write(tmp_path, "smiles_1,smiles_2,label\nCCO,CN\n"))

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"smiles_1,smiles_2,label\nCCO,CN,0\nCC,C\xff,1\n")
        with pytest.raises(MalformedRowError, match=r"data\.csv:3: not UTF-8 "
                                                    r"text \(byte 0xff"):
            load_dataset(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as spreadsheet "CSV UTF-8" exports write it; one row quarantined
        text = WELL_FORMED + "C1CC,CN,0\n"
        plain = load_dataset(write(tmp_path, text))
        marked = tmp_path / "bom.csv"
        marked.write_bytes(BOM + text.encode("utf-8"))
        assert load_dataset(marked) == plain
        assert [q.line for q in plain.quarantined] == [5]

    def test_non_utf8_byte_after_byte_order_mark(self, tmp_path):
        raw = b"smiles_1,smiles_2,label\nCCO,CN,0\nCC,C\xff,1\n"
        path = tmp_path / "data.csv"
        path.write_bytes(BOM + raw)
        offset = len(BOM) + raw.index(b"\xff")
        with pytest.raises(MalformedRowError, match=rf"data\.csv:3: not UTF-8 "
                           rf"text \(byte 0xff at offset {offset}\)"):
            load_dataset(path)

    def test_digest_hashes_the_byte_order_mark(self, tmp_path):
        plain = write(tmp_path, WELL_FORMED)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(BOM + WELL_FORMED.encode("utf-8"))
        assert dataset_digest(marked) != dataset_digest(plain)

    def test_field_over_csv_limit_names_line(self, tmp_path):
        text = ("smiles_1,smiles_2,label\nCCO,CN,0\nCC,CO,1\n"
                f"{'C' * 131073},CN,0\n")
        with pytest.raises(MalformedRowError, match=r":4: field larger"):
            load_dataset(write(tmp_path, text))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_dataset(write(tmp_path, ""))

    def test_all_rows_quarantined(self, tmp_path):
        with pytest.raises(EmptyDatasetError) as exc:
            load_dataset(write(tmp_path,
                               "smiles_1,smiles_2,label\nC@C,CN,0\n"))
        assert exc.value.quarantined == [
            QuarantinedRow(2, "unsupported token '@' (position 1)")]


class TestDigest:
    def test_stable_and_content_sensitive(self, tmp_path):
        p1 = write(tmp_path, WELL_FORMED, "a.csv")
        p2 = write(tmp_path, WELL_FORMED, "b.csv")
        p3 = write(tmp_path, WELL_FORMED + "C,N,0\n", "c.csv")
        assert dataset_digest(p1) == dataset_digest(p2)
        assert dataset_digest(p1) != dataset_digest(p3)
        assert len(dataset_digest(p1)) == 64


class TestFeaturizeSamples:
    def test_pairs_align_with_samples(self, tmp_path):
        result = load_dataset(write(tmp_path, WELL_FORMED))
        pairs = featurize_samples(result.samples)
        assert len(pairs) == 3
        assert pairs[0][0].n_atoms == 3   # CCO
        assert pairs[0][1].n_atoms == 2   # CN

    def assert_bit_equal(self, texts, tmp_path):
        """Samples built by hand, loaded ones, which carry their scans,
        and lists mixing both over the same SMILES featurize to the
        arrays of featurize(parse_smiles(text))."""
        rows = list(zip(texts, texts[1:] + texts))
        hand = [DDISample(a, b, 0) for a, b in rows]
        text = "smiles_1,smiles_2,label\n" + "".join(
            f"{a},{b},0\n" for a, b in rows)
        loaded = load_dataset(write(tmp_path, text)).samples
        assert loaded == hand
        assert all(s.record_1 and s.record_2 for s in loaded)
        mixed = [pair[i % 2] for i, pair in enumerate(zip(hand, loaded))]
        for samples in (hand, loaded, mixed, hand + loaded):
            pairs = featurize_samples(samples)
            for sample, graphs in zip(samples, pairs):
                for text, g in zip((sample.smiles_1, sample.smiles_2), graphs):
                    ref = featurize(parse_smiles(text))
                    for got, want in ((g.features, ref.features),
                                      (g.adjacency, ref.adjacency)):
                        assert got.shape == want.shape, text
                        assert got.dtype == want.dtype, text
                        assert got.tobytes() == want.tobytes(), text

    def test_batch_equals_one_at_a_time(self, bench_corpus, tmp_path):
        fifty = bench_corpus.make_drug(random.Random(3), 50)
        assert len(parse_smiles(fifty).atoms) == 50
        self.assert_bit_equal([
            "C", "[NH4+]", "[O-]C=O", "C[N+](C)(C)C", "[nH]1cccc1",
            "[CH2-]C", "[NH3+]CC(=O)[O-]", "c1ccccc1", "c1ccncc1",
            "C%10CC%10", "C%12CCC%12CC%34CCCC%34", fifty, "C", "c1ccccc1",
            "CCO"], tmp_path)

    def test_batch_without_bonds(self, tmp_path):
        self.assert_bit_equal(["C", "[NH4+]", "O", "[Cl-]", "[CH3-]", "N"],
                              tmp_path)


# bracket atoms, formal charges and aromatic rings, beside drug-sized ones
BYTE_TEXTS = ["[NH4+]", "[O-]C=O", "C[N+](C)(C)C", "[nH]1cccc1", "[CH2-]C",
              "[NH3+]CC(=O)[O-]", "c1ccccc1", "c1ccncc1", "[Cl-]", "C",
              "C%12CCC%12CC%34CCCC%34"]


def as_float64(g):
    return smiles.FeaturedGraph(g.features.astype(np.float64),
                                g.adjacency.astype(np.float64))


class TestOneByteGraphs:
    """Graphs hold one byte per 0/1 entry; every chunk copies them into
    its own dtype, so chunks, logits and gradients are those of the same
    graphs held as float64."""

    @pytest.fixture(scope="class")
    def pairs(self, bench_corpus, tmp_path_factory):
        rng = random.Random(11)
        texts = BYTE_TEXTS + [bench_corpus.make_drug(rng, n)
                              for n in (20, 33, 50)]
        rows = list(zip(texts, texts[5:] + texts[:5]))
        path = tmp_path_factory.mktemp("bytes") / "data.csv"
        path.write_text("smiles_1,smiles_2,label\n" + "".join(
            f"{a},{b},{i % 3}\n" for i, (a, b) in enumerate(rows)))
        result = load_dataset(path)
        assert len(result.samples) == len(rows) and not result.quarantined
        pairs = featurize_samples(result.samples)
        features = np.vstack([g.features for pair in pairs for g in pair])
        lo, hi = smiles.FEATURE_BLOCKS["charge"]
        assert features[:, smiles.AROMATIC_INDEX].any()
        assert features[:, lo:lo + 2].any() and features[:, lo + 3:hi].any()
        return pairs

    def test_bool_views_of_one_buffer(self, pairs):
        graphs = list({id(g): g for pair in pairs for g in pair}.values())
        for g in graphs:
            n = g.n_atoms
            assert g.features.dtype == g.adjacency.dtype == bool
            assert g.features.nbytes + g.adjacency.nbytes == \
                smiles.FEATURE_DIM * n + n * n
        assert len({id(g.features.base) for g in graphs}) == 1
        assert len({id(g.adjacency.base) for g in graphs}) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunks_as_from_float64_graphs(self, pairs, dtype):
        wide = [(as_float64(a), as_float64(b)) for a, b in pairs]
        got, want = stack_joints(pairs, dtype), stack_joints(wide, dtype)
        for name in ("features", "adjacency", "mask"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_and_grads_as_from_float64_graphs(self, pairs, dtype):
        params = m.init_params(m.ModelConfig(classes=3, seed=5)).astype(dtype)
        wide = [(as_float64(a), as_float64(b)) for a, b in pairs]
        labels = [i % 3 for i in range(len(pairs))]

        def scored(chunk_pairs):
            params.grads[...] = 0.0
            m.cross_entropy_from_logits(
                m.forward_chunk(chunk_pairs, params), labels, 1.0).backward()
            return (m.batch_logits(chunk_pairs, params).tobytes(),
                    params.grads.tobytes())

        assert scored(pairs) == scored(wide)
