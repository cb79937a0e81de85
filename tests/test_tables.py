"""Table files: golden digests of generated tables and extracted matrices,
and the ingest error paths of ``read_tables``."""

import csv
import dataclasses
import datetime as dt
import hashlib
import math
import os
import random
import re

import numpy as np
import pytest

from churnforge import (DatasetFormatError, GeneratorConfig, TelcoDataset, data, generate,
                        read_tables, write_tables)
from churnforge.features import write_matrix
from churnforge.months import Month
from churnforge.tasks import TASKS, _extract, filter_dataset

# sha256 of each write_tables CSV. numpy does not promise identical Generator
# streams across releases, so the digests hold only on the numpy they were
# taken with.
GOLDEN_NUMPY = "2.4"
GOLDEN_TABLES = {
    "small": (GeneratorConfig(seed=1, n_consumers=400, n_smes=60,
                              churn_rate=0.15, winback_rate=0.3), {
        "billing.csv": "2f659ab3d0789fade60d34180667fe29bd77746fa0171dd8c593d509f0aabf33",
        "service_requests.csv": "9946a20528bc08257c75ea5091a44644b6968fc6c2b3e428dffaddd1a8bf28ad",
        "subscribers.csv": "b481b7c9f4629406846fb09ca3a76fee542d4113a7e60bf816f4750de7a4d37b",
        "usage.csv": "a0ff60fd0d1634573d1b1793af7e83ff019d15865b9606b45bd5024f8b10c23f",
    }),
    "criterion-8": (GeneratorConfig(seed=8, n_consumers=10000, n_smes=700,
                                    churn_rate=0.1), {
        "billing.csv": "22185aca360ec6e260dcc310d9f24c610228ef4ba174262f4d81110aae1e0da4",
        "service_requests.csv": "61ff3e0b2023f5f71277a189b26e7d5622dc716d18155a99df2e188e49f97839",
        "subscribers.csv": "1b1eb1bba4939391515e064f4d4da7014b12053e7503c751bc9e4117d561d746",
        "usage.csv": "f96fd35d766d9ef72560f94e11b04c8a434eb424d2f7e8ac6b4f7563320bb0b0",
    }),
    "criterion-5": (GeneratorConfig(seed=42, n_consumers=20000, n_smes=0,
                                    churn_rate=0.08, signal_strength=0.8), {
        "billing.csv": "86537956775e5bc008f7f9bf5219e46b685fdd3b270a63ebb9bf57f30793720f",
        "service_requests.csv": "6344cc6c7f6c381791f21ad04b6725688882229e5d547dc7661671a2a174e0f9",
        "subscribers.csv": "c31e470ec179117ab5f4ff04690c6d61634f34f5be171774f28dfcd7f2e231f6",
        "usage.csv": "ffaf267ef6c4948be6e817c9e02cf23f64ab85af8be7bbf08ffe399db8fa3680",
    }),
}
# sha256 of write_matrix for the train and test matrices that tasks 1, 3
# and 6 extract from the "small" tables.
GOLDEN_MATRICES = {
    "task1_train": "ae147d65ae7bbf977feab6dcebb6386666b0b07bcdc58d2d6d722896c8a0fb29",
    "task1_test": "ec6391cc77d0764a77e55d9068c355f47b37fb5ab3ce2e055e670da7103c11d5",
    "task3_train": "63ca64a5519537b0af5c9eb27a1e07a284996741d0dbb9a3beb992901c23e5c4",
    "task3_test": "59631155f030709509b2de1dc115cf286bdeafd61ecb9620aab38f426b915a98",
    "task6_train": "e2b6acdd222243133bb9a52946d2789d53958671fa24a21414dfa3494f5a0907",
    "task6_test": "05ec1351500d3d2672b7e31cd4e465760530122a5480516615cc0ecb312aeed7",
}

golden_numpy = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != GOLDEN_NUMPY,
    reason=f"golden digests were captured with numpy {GOLDEN_NUMPY}")


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@golden_numpy
@pytest.mark.parametrize("name", list(GOLDEN_TABLES))
def test_generated_tables_match_golden_digests(name, tmp_path):
    config, expected = GOLDEN_TABLES[name]
    write_tables(generate(config), str(tmp_path))
    assert {f: _sha256(tmp_path / f) for f in sorted(os.listdir(tmp_path))} == expected


@golden_numpy
def test_extracted_matrices_match_golden_digests(small_dataset, tmp_path):
    digests = {}
    for task_id in (1, 3, 6):
        task = TASKS[task_id]
        dataset = filter_dataset(small_dataset, task)
        for role in ("train", "test"):
            path = tmp_path / f"task{task_id}_{role}.csv"
            write_matrix(_extract(dataset, task, role), str(path))
            digests[path.stem] = _sha256(path)
    assert digests == GOLDEN_MATRICES


# ---------------------------------------------------------------------------
# ingest error paths: every defect names file:line
# ---------------------------------------------------------------------------

HEADERS = {
    "subscribers.csv": "customer_id,billing_id,service_id,segment,service_type,"
                       "activation_date,customer_since,contract_period,price_start,"
                       "t_location,hsbb_area,termination_date,comeback_date\n",
    "billing.csv": "billing_id,month,current_bill_amt,last_bill_amt,amt_2pay,"
                   "outstanding,payment,credit_adj\n",
    "usage.csv": "billing_id,month,download_mb,upload_mb,voice_minutes,voice_calls\n",
    "service_requests.csv": "customer_id,request_date,request_code\n",
}
SUBSCRIBER = "C1,B1,SV1,consumer,voice_broadband,2010-05-03,2009-01-03,12,4900,AJP,1,,\n"
BILL = "B1,2011-03,4900,4900,4900,0,4900,0\n"
USAGE = "B1,2011-03,10.0,1.0,5.0,2\n"
REQUEST = "C1,2011-03-04,TECH\n"


def _write(tmp_path, **rows):
    """All four tables with one good row each, plus ``rows`` appended per file."""
    good = {"subscribers.csv": SUBSCRIBER, "billing.csv": BILL, "usage.csv": USAGE,
            "service_requests.csv": REQUEST}
    for name, header in HEADERS.items():
        extra = rows.get(name.replace(".csv", ""), [])
        (tmp_path / name).write_text(header + good[name] + "".join(extra), encoding="utf-8")


def test_good_rows_read(tmp_path):
    _write(tmp_path)
    ds = read_tables(str(tmp_path))
    assert (len(ds.subscribers), len(ds.billing), len(ds.usage),
            len(ds.service_requests)) == (1, 1, 1, 1)


@pytest.mark.parametrize("table,rows,where,what", [
    ("billing", ["B1,2011-13,4900,4900,4900,0,4900,0\n"], "billing.csv:3", "malformed month"),
    ("billing", ["B1,2011/04,4900,4900,4900,0,4900,0\n"], "billing.csv:3", "malformed month"),
    ("billing", ["B1,2011-04,49.5,4900,4900,0,4900,0\n"], "billing.csv:3",
     "malformed current_bill_amt"),
    ("billing", ["B1,2011-04,4900,4900,4900,0,4900,1e3\n"], "billing.csv:3",
     "malformed credit_adj"),
    ("billing", ["B1,2011-04,4900,4900,4900,0,4900,0\n", "B1,2011-03,1,1,1,0,1,0\n"],
     "billing.csv:4", "duplicate"),
    ("billing", ["B1,2011-04,4900,-1,4900,0,4900,0\n"], "billing.csv:3", "negative bill"),
    ("subscribers", [SUBSCRIBER.replace("2010-05-03", "2010-02-30").replace("SV1", "SV2")],
     "subscribers.csv:3", "malformed activation_date"),
    ("subscribers", [SUBSCRIBER.replace(",,\n", ",2011-13-01,\n")],
     "subscribers.csv:3", "malformed termination_date"),
    ("subscribers", [SUBSCRIBER.replace("consumer", "corporate")],
     "subscribers.csv:3", "unknown segment"),
    ("subscribers", [SUBSCRIBER.replace("voice_broadband", "fibre")],
     "subscribers.csv:3", "unknown service_type"),
    ("subscribers", [SUBSCRIBER.replace(",12,", ",-12,")],
     "subscribers.csv:3", "negative contract_period"),
    ("usage", ["B1,2011-04,inf,1.0,5.0,2\n"], "usage.csv:3",
     "download_mb must be finite and non-negative, got inf"),
    ("usage", ["B1,2011-04,10.0,nan,5.0,2\n"], "usage.csv:3",
     "upload_mb must be finite and non-negative, got nan"),
    ("usage", ["B1,2011-04,10.0,1.0,5.0,-2\n"], "usage.csv:3",
     "voice_calls must be finite and non-negative, got -2"),
    ("usage", ["B1,2011-04,10.0,1.0,5.0,2.0\n"], "usage.csv:3", "malformed voice_calls"),
    ("service_requests", ["C1,2011-03-05\n"], "service_requests.csv:3",
     "expected 3 fields, got 2"),
    ("service_requests", ["C1,2011-03-05,TECH,X\n"], "service_requests.csv:3",
     "expected 3 fields, got 4"),
    ("service_requests", ["C1,05/03/2011,TECH\n"], "service_requests.csv:3",
     "malformed request_date"),
])
def test_defective_row_names_file_and_line(tmp_path, table, rows, where, what):
    _write(tmp_path, **{table: rows})
    with pytest.raises(DatasetFormatError) as info:
        read_tables(str(tmp_path))
    message = str(info.value)
    assert f"{where}: " in message and what in message


@pytest.mark.parametrize("block_rows", [None, 1])
@pytest.mark.parametrize("table,rows,where,what", [
    # the first defective line is named, whichever column holds its defect
    ("billing", ["B1,2011-04,4900,4900,4900,0,4900,0\n", "\n", "B1,2011-x,1,1,1,0,1,0\n"],
     "billing.csv:4", "expected 8 fields, got 0"),
    ("billing", ["B2,2011-03,1,1,1,0,1,0\n", "B1,2011-04,1,1,1,0,1,0\n",
                 "B2,2011-03,1,1,1,0,1,0\n", "B3,x,1,1,1,0,1,0\n"],
     "billing.csv:5", "duplicate (billing_id, month) B2/2011-03"),
    ("usage", ["B1,2011-04,10.0,1.0,5.0,2\n", "B1,2011-04,10.0,1.0,5.0,2\n"],
     "usage.csv:4", "duplicate (billing_id, month) B1/2011-04"),
    ("billing", ["B1,2011-04,4900,4900,4900,0,4900,x\n", "B1,2011-x,1,1,1,0,1,0\n"],
     "billing.csv:3", "malformed credit_adj"),
    ("billing", ["B1,2011-04,4900,4900,4900,0,4900,0\n", "B2,2011-04,4900,4900,4900\n",
                 "B1,2011-04,1,1,1,0,1,0\n"], "billing.csv:4", "expected 8 fields"),
    ("usage", ["B1,2011-04,10.0,1.0,5.0,-2\n", "B1,2011-05,x,1.0,5.0,2\n"],
     "usage.csv:3", "voice_calls must be"),
    # ids are compared whole: a long one, and one that differs by a trailing NUL
    ("billing", [f"{'B' * 100},2011-04,1,1,1,0,1,0\n"] * 2,
     "billing.csv:4", f"duplicate (billing_id, month) {'B' * 100}/2011-04"),
    ("billing", ["B1\0,2011-03,1,1,1,0,1,0\n"] * 2,
     "billing.csv:4", "duplicate (billing_id, month) B1\0/2011-03"),
    # within one line, parsing comes before range checks, as a row reader does
    ("usage", ["B1,2011-04,-1.0,1.0,5.0,x\n"], "usage.csv:3", "malformed voice_calls"),
    ("subscribers", [SUBSCRIBER.replace("consumer", "corporate").replace("2010-05-03", "x")],
     "subscribers.csv:3", "unknown segment"),
])
def test_first_defect_by_line_is_reported(tmp_path, monkeypatch, table, rows, where, what,
                                          block_rows):
    if block_rows is not None:  # one line per block of a blockwise reader
        monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows, raising=False)
    _write(tmp_path, **{table: rows})
    with pytest.raises(DatasetFormatError) as info:
        read_tables(str(tmp_path))
    message = str(info.value)
    assert f"{where}: " in message and what in message


@pytest.mark.parametrize("text,got", [
    (HEADERS["billing.csv"].replace("payment", "paid") + BILL, "['billing_id'"),
    ("", "None"),
])
def test_bad_header_names_line_one(tmp_path, text, got):
    _write(tmp_path)
    (tmp_path / "billing.csv").write_text(text, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r"billing\.csv:1: bad header " + re.escape(got)):
        read_tables(str(tmp_path))


@pytest.mark.parametrize("block_rows", [None, 1])
def test_quoted_fields_and_crlf_read_like_plain_csv(small_dataset, tmp_path, monkeypatch,
                                                    block_rows):
    if block_rows is not None:
        monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows, raising=False)
    write_tables(small_dataset, str(tmp_path))
    for name in HEADERS:
        path = tmp_path / name
        lines = path.read_text(encoding="utf-8").splitlines()
        quoted = [",".join(f'"{field}"' for field in line.split(",")) for line in lines]
        path.write_bytes(("\r\n".join(quoted) + "\r\n").encode())
    assert read_tables(str(tmp_path)) == small_dataset


def test_crlf_defect_names_its_line(tmp_path):
    _write(tmp_path, usage=["B1,2011-04,10.0,1.0,5.0,2\n", "B1,2011-05,1.0,x,5.0,2\n"])
    path = tmp_path / "usage.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(DatasetFormatError, match=r"usage\.csv:4: malformed upload_mb: 'x'"):
        read_tables(str(tmp_path))


# ---------------------------------------------------------------------------
# differential check: read_tables against a row-by-row reader
# ---------------------------------------------------------------------------

def _reference_read(directory) -> TelcoDataset:
    """What ``read_tables`` must do, one row at a time: ``csv.reader`` rows,
    each row's checks in order, the first defect raised with file and line."""
    date = dt.date.fromisoformat
    optional_date = lambda text: date(text) if text else None  # noqa: E731

    def int64(value):
        if not -2**63 <= value < 2**63:
            raise OverflowError(value)
        return value

    parsers = {"int": lambda text: int64(int(text)), "float": float, "date": date,
               "optional_date": optional_date,
               "month": lambda text: Month.from_index(int64(Month.parse(text).index))}
    tables = {}
    for name, record in data.RECORDS.items():
        path = os.path.join(directory, data.FILENAMES[name])
        names = [f.name for f in dataclasses.fields(record)]
        rows, seen = [], set()
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != names:
                raise DatasetFormatError(f"{path}:1: bad header {header!r}")
            for line, row in enumerate(reader, start=2):
                def fail(message):
                    raise DatasetFormatError(f"{path}:{line}: {message}")

                def parse(column, kind):
                    try:
                        values[column] = parsers[kind](values[column])
                    except (ValueError, TypeError, OverflowError):
                        fail(f"malformed {column}: {values[column]!r}")

                if len(row) != len(names):
                    fail(f"expected {len(names)} fields, got {len(row)}")
                values = dict(zip(names, row))
                if name == "subscribers":
                    for column, allowed in (("segment", data.SEGMENTS),
                                            ("service_type", data.SERVICE_TYPES)):
                        if values[column] not in allowed:
                            fail(f"unknown {column} {values[column]!r}")
                    for column, kind in (("activation_date", "date"), ("customer_since", "date"),
                                         ("contract_period", "int"), ("price_start", "int"),
                                         ("hsbb_area", "int"),
                                         ("termination_date", "optional_date"),
                                         ("comeback_date", "optional_date")):
                        parse(column, kind)
                    for column in ("contract_period", "price_start"):
                        if values[column] < 0:
                            fail(f"negative {column} {values[column]}")
                elif name in ("billing", "usage"):
                    parse("month", "month")
                    key = (values["billing_id"], values["month"])
                    if key in seen:
                        fail(f"duplicate (billing_id, month) {key[0]}/{key[1]}")
                    seen.add(key)
                    for column in names[2:]:
                        parse(column, "float" if name == "usage" and column != "voice_calls"
                              else "int")
                    if name == "billing" and any(values[c] < 0 for c in names[2:6]):
                        fail("negative bill amount")
                    for column in names[2:] if name == "usage" else ():
                        if not 0 <= values[column] < math.inf:
                            fail(f"{column} must be finite and non-negative, "
                                 f"got {values[column]!r}")
                else:
                    parse("request_date", "date")
                rows.append(record(**values))
        tables[name] = rows
    return TelcoDataset(**tables)


def _read_both(directory):
    """(read_tables result or its error message, the same from the reference)."""
    results = []
    for read in (read_tables, _reference_read):
        try:
            results.append(read(str(directory)))
        except DatasetFormatError as exc:
            results.append(str(exc))
    return results


# one of each defect kind of the parametrised lists above:
# (table, columns to pick from, new text); "width" kinds reshape the line
AMOUNTS = ["current_bill_amt", "last_bill_amt", "amt_2pay", "outstanding", "payment",
           "credit_adj"]
VOLUMES = ["download_mb", "upload_mb", "voice_minutes"]
DEFECTS = [
    ("billing", ["month"], "2011-13"), ("billing", ["month"], "2011/04"),
    ("billing", AMOUNTS, "49.5"), ("billing", AMOUNTS, "1e3"), ("billing", AMOUNTS, "x"),
    ("billing", AMOUNTS[:4], "-1"), ("billing", AMOUNTS, "99999999999999999999"),
    ("billing", None, "duplicate"), ("usage", None, "duplicate"),
    ("subscribers", ["activation_date", "customer_since"], "2010-02-30"),
    ("subscribers", ["termination_date", "comeback_date"], "2011-13-01"),
    ("subscribers", ["segment"], "corporate"), ("subscribers", ["service_type"], "fibre"),
    ("subscribers", ["contract_period", "price_start"], "-12"),
    ("subscribers", ["hsbb_area"], "1.0"),
    ("usage", VOLUMES, "inf"), ("usage", VOLUMES, "nan"), ("usage", VOLUMES, "-1.0"),
    ("usage", VOLUMES, "x"), ("usage", ["voice_calls"], "-2"), ("usage", ["voice_calls"], "2.0"),
    ("service_requests", ["request_date"], "05/03/2011"),
    (None, None, "fewer fields"), (None, None, "more fields"), (None, None, "blank line"),
]


@pytest.fixture(scope="module")
def small_tables(tmp_path_factory):
    """The lines of each file of a few small generated datasets."""
    datasets = []
    for seed in range(3):
        directory = tmp_path_factory.mktemp(f"tables{seed}")
        write_tables(generate(GeneratorConfig(seed=seed, n_consumers=40 + 20 * seed, n_smes=8,
                                              churn_rate=0.3, winback_rate=0.4)),
                     str(directory))
        datasets.append({name: (directory / name).read_text(encoding="utf-8").splitlines()
                         for name in HEADERS})
    return datasets


def _inject(files, defect, rng, i=None) -> None:
    """Put ``defect`` into data line ``i`` (default: a random one) of
    ``files``, in a random column of those it names."""
    table, columns, text = defect
    name = f"{table or rng.choice(['subscribers', 'billing', 'usage', 'service_requests'])}.csv"
    lines = files[name]
    header = lines[0].split(",")
    i = i or rng.randrange(1, len(lines))
    fields = lines[i].split(",")
    if text == "duplicate":
        k = rng.randrange(1, i) if i > 1 else 2
        fields[:2] = lines[k].split(",")[:2]
    elif text == "fewer fields":
        fields.pop(rng.randrange(len(fields)))
    elif text == "more fields":
        fields.insert(rng.randrange(len(fields) + 1), "X")
    elif text == "blank line":
        fields = []
    else:
        fields[header.index(rng.choice(columns))] = text
    lines[i] = ",".join(fields)


def _write_files(directory, files, rng) -> None:
    """Write the files plain, quoted and/or with CRLF line ends."""
    for name, lines in files.items():
        if rng.random() < 0.4:
            lines = [",".join(f'"{field}"' for field in line.split(",")) if line else line
                     for line in lines]
        end = "\r\n" if rng.random() < 0.4 else "\n"
        (directory / name).write_bytes("".join(line + end for line in lines).encode())


@pytest.mark.parametrize("case", range(60))
def test_first_defect_matches_a_row_by_row_reader(small_tables, tmp_path, case):
    rng = random.Random(case)
    files = {name: list(lines) for name, lines in rng.choice(small_tables).items()}
    kinds = [DEFECTS[case % len(DEFECTS)]] + rng.sample(DEFECTS, rng.randrange(3))
    for defect in kinds:
        _inject(files, defect, rng)
    _write_files(tmp_path, files, rng)
    ours, reference = _read_both(tmp_path)
    assert isinstance(reference, str)
    assert ours == reference


@pytest.mark.parametrize("defects", [
    [("usage", ["download_mb"], "1.2.3.4.5.6.7.8.9")],
    [("billing", ["payment"], "99999999999999999999"), ("billing", ["payment"], "")],
])
def test_odd_number_cells_fail_as_the_row_by_row_reader_fails(small_tables, tmp_path, defects):
    """A cell of many points, and an empty cell in a column as wide as an
    int can be written."""
    rng = random.Random(1)
    files = {name: list(lines) for name, lines in small_tables[0].items()}
    for defect in defects:
        _inject(files, defect, rng)
    _write_files(tmp_path, files, rng)
    ours, reference = _read_both(tmp_path)
    assert isinstance(reference, str) and ours == reference


@pytest.mark.parametrize("case", range(6))
def test_valid_uncanonical_cells_read_as_int_and_float_do(small_tables, tmp_path, monkeypatch,
                                                          case):
    """Cells ``str(int)``/``repr(float)`` would not write still read as
    ``int``/``float`` read them, and only those cells are decoded."""
    rng = random.Random(case)
    files = {name: list(lines) for name, lines in small_tables[case % 3].items()}
    injected = []
    for table, columns, texts in (("billing", AMOUNTS, ["007", "+5", " 5", "1_000",
                                                        "1234567890123456789"]),
                                  ("subscribers", ["price_start"], ["007", "+5", " 5"]),
                                  ("usage", VOLUMES, ["1E3", ".5", "5.", "-0.0",
                                                      "0.1234567890123456789"])):
        lines = rng.sample(range(1, len(files[f"{table}.csv"])), len(texts))
        for text, i in zip(texts, lines):
            _inject(files, (table, columns, text), rng, i)
            injected.append(text)
    _write_files(tmp_path, files, rng)
    decoded = []
    texts_of = data._TableReader.texts

    def numeric_texts(self, fields):  # a date column decodes every cell
        texts = texts_of(self, fields)
        if {self.names[k % len(self.names)] for k in fields.tolist()}.isdisjoint(data._DATES):
            decoded.extend(texts)
        return texts

    monkeypatch.setattr(data._TableReader, "texts", numeric_texts)
    ours, reference = _read_both(tmp_path)
    assert isinstance(ours, TelcoDataset) and ours == reference
    assert sorted(decoded) == sorted(injected)
    signs = [math.copysign(1.0, v) for c in VOLUMES for v in ours.usage.column(c)]
    assert signs == [math.copysign(1.0, v) for c in VOLUMES for v in reference.usage.column(c)]


def test_cli_extract_builds_its_join_index_once(tmp_path, monkeypatch):
    """cmd_extract extracts train and test through one TableIndex, so each
    extract step builds its joins once, not once per window."""
    from churnforge import features, tasks

    builds = []
    init = features.TableIndex.__init__

    def counted(self, dataset):
        builds.append(1)
        init(self, dataset)

    monkeypatch.setattr(features.TableIndex, "__init__", counted)
    cfg = tasks.PipelineConfig(data_dir=str(tmp_path / "data"), out_dir=str(tmp_path / "out"),
                               n_consumers=300, n_smes=40, churn_rate=0.2, winback_rate=0.3)
    tasks.cmd_generate(cfg)
    for task_id in (1, 3):
        cfg.task_id = task_id
        tasks.cmd_extract(cfg)
    assert len(builds) == 2


def test_table_index_extracts_like_the_dataset(small_dataset):
    from churnforge.features import TableIndex, extract_churn, extract_winback, standard_windows

    index = TableIndex(small_dataset)
    for role in ("train", "test"):
        churn = standard_windows("churn", role)
        assert extract_churn(index, churn) == extract_churn(small_dataset, churn)
        winback = standard_windows("winback", role)
        assert (extract_winback(index, winback.termination_range, winback.label_months)
                == extract_winback(small_dataset, winback.termination_range,
                                   winback.label_months))


# ---------------------------------------------------------------------------
# defects that the text and csv layers find name their file and line
# ---------------------------------------------------------------------------

BAD_BILL = "B2,2011-04,4900,4900,4900,0,4900,0\n"


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, quoted):
    _write(tmp_path, billing=[BAD_BILL, BAD_BILL.replace("B2", "B3")])
    path = tmp_path / "billing.csv"
    raw = path.read_bytes().replace(b"B3", b"B\xff3")
    path.write_bytes(raw.replace(b"B2", b'"B2"') if quoted else raw)
    with pytest.raises(DatasetFormatError, match=r"billing\.csv:4: byte 0xff is not UTF-8"):
        read_tables(str(tmp_path))


@pytest.mark.parametrize("rows,where,what", [
    ([BAD_BILL, "B" * (csv.field_size_limit() + 1) + BAD_BILL[2:]], "billing.csv:4",
     "field larger than field limit"),
    # an earlier defect is named first, as a row-by-row reader meets it first
    ([BAD_BILL.replace("2011-04", "2011-x"), "B" * (csv.field_size_limit() + 1) + BAD_BILL[2:]],
     "billing.csv:3", "malformed month"),
    (['"' + "B" * (csv.field_size_limit() + 1) + '"' + BAD_BILL[2:]], "billing.csv:3",
     "field larger than field limit"),
])
def test_field_over_the_csv_limit_names_its_line(tmp_path, rows, where, what):
    _write(tmp_path, billing=rows)
    with pytest.raises(DatasetFormatError) as info:
        read_tables(str(tmp_path))
    message = str(info.value)
    assert f"{where}: " in message and what in message
