"""Fuzz tests for the file readers: each starts from a file its writer
produced, mangles it, and requires the reader to either fail with a named
error whose message starts with the path, never with an ``IndexError``,
``KeyError`` or ``TypeError``, or return a result that keeps the reader's
guarantees."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest
from conftest import point_columns, record_columns
from hypothesis import given, settings
from hypothesis import strategies as st

from bibench.core import ObjectiveVector
from bibench.datalog import (
    INDEX_FILENAME,
    ExperimentWriter,
    LogParseError,
    LogVersionError,
    RunHeader,
    RunLog,
    read_experiment_index,
    read_log,
    write_log,
)
from bibench.refset import merge, read_reference_set, write_reference_set

# Stand-ins for a good token: empty, out of range, unparsable, other keys'
# values, separators and a non-ASCII character.
_TOKENS = ("", "0", "-1", "1e999", "nan", "-inf", "one", "%", "#", "=", "x=1",
           "estimated", "\t", "é")


@st.composite
def _mangled(draw, text: str) -> str:
    """``text`` after one to three edits: truncate it, or delete, duplicate
    or swap a line, or replace one token of a line."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines() or [""]
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("truncate", "delete", "duplicate", "swap", "token")))
        if edit == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
            continue
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = re.split(r"([\t =])", lines[i])
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = "".join(tokens)
        text = "".join(line + "\n" for line in lines)
    return text


def _written_files(directory):
    """One file per reader, as its writer produces it; each maps to
    ``(reader, path)``."""
    header = RunHeader(
        function_id="f1", instance_id=1, dimension=2, ideal=ObjectiveVector(0.0, 0.0),
        nadir=ObjectiveVector(2.0, 2.0), i_ref=-0.4, refset_version="ab12cd34ef56ab78",
        algorithm="random", budget=100,
    )
    records = record_columns(
        (t, 2.0 - k * 0.3, 0.2 + k * 0.3) for k, t in enumerate((1, 4, 9, 30))
    )
    log = write_log(RunLog(header, records), directory / "log.tsv")
    rs = merge(
        [point_columns([ObjectiveVector(k / 4, 1 - k / 4) for k in range(5)])],
        function_id="f1", instance_id=1, dimension=2,
        ideal=ObjectiveVector(0.0, 0.0), nadir=ObjectiveVector(1.0, 1.0),
    )
    refset = write_reference_set(rs, directory / "refset.tsv")
    writer = ExperimentWriter(directory)
    for i in (1, 2, 3):
        writer.write(RunLog(replace(header, instance_id=i), record_columns()))
    writer.close()
    index = directory / "random" / INDEX_FILENAME
    return {
        "read_log": (read_log, log),
        "read_reference_set": (read_reference_set, refset),
        "read_experiment_index": (read_experiment_index, index),
    }


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return _written_files(tmp_path_factory.mktemp("written"))


@pytest.mark.parametrize("file", ["read_log", "read_reference_set", "read_experiment_index"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reader_fails_only_with_named_errors(written, file, data) -> None:
    reader, original = written[file]
    path = original.with_name("mangled" + original.suffix)
    path.write_text(data.draw(_mangled(original.read_text())), encoding="utf-8")
    try:
        result = reader(path)
    except (LogParseError, LogVersionError):
        return
    except ValueError as exc:
        assert str(exc).startswith(str(path)), repr(exc)
        return
    if reader is read_log:
        assert result.header.budget >= 1
    elif reader is read_experiment_index:
        assert len({e.file for e in result}) == len(result)
        assert len({(e.function_id, e.instance_id, e.dimension) for e in result}) == len(result)
        assert all(e.instance_id >= 1 and e.dimension >= 1 for e in result)
