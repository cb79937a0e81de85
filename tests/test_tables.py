"""Table files: golden digests of generated tables and extracted matrices,
and the ingest error paths of ``read_tables``."""

import hashlib
import os
import re

import numpy as np
import pytest

from churnforge import (DatasetFormatError, GeneratorConfig, data, generate, read_tables,
                        write_tables)
from churnforge.features import write_matrix
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
