"""The trace commands of ``python -m repro`` speak the shared exit-code
dialect: bad input is exit 2 with a message, never a traceback."""

import pytest

from repro.cli import EXIT_OK, EXIT_USAGE
from repro.__main__ import main
from repro.trace.format import EventKind
from repro.trace.writer import TraceWriter


@pytest.fixture
def trace(tmp_path):
    writer = TraceWriter()
    for index in range(3):
        writer.emit(EventKind.PROPAGATE, index * 10, index)
    writer.close()
    path = tmp_path / "small.trace"
    path.write_bytes(writer.getvalue())
    return str(path)


@pytest.mark.parametrize("command", ["summary", "validate", "phases", "heatmap", "dump"])
def test_a_directory_is_bad_input(command, tmp_path, capsys):
    assert main([command, str(tmp_path)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_an_unknown_kind_is_bad_input_naming_the_valid_ones(trace, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["dump", trace, "--kinds", "propagate,BOGUS"])
    assert exit_info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "BOGUS" in err and "CONFLICT" in err and "PROPAGATE" in err


def test_kinds_match_in_any_case(trace, capsys):
    assert main(["dump", trace, "--kinds", "Propagate"]) == EXIT_OK
    assert capsys.readouterr().out.count("PROPAGATE") == 3


@pytest.mark.parametrize("limit, printed, stopped", [(0, 0, True), (2, 2, True), (3, 3, False)])
def test_limit_prints_at_most_that_many_records(trace, capsys, limit, printed, stopped):
    assert main(["dump", trace, "--limit", str(limit)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert sum("PROPAGATE" in line for line in lines) == printed
    assert (f"... stopped after {limit} records" in lines) is stopped
    assert "no records matched" not in lines


@pytest.mark.parametrize("size", ["-2", "x"])
def test_record_size_below_one_is_bad_input(size, tmp_path, capsys):
    # A negative size used to die in numpy / random with exit 1, and
    # pigeonhole(-2) recorded a satisfiable formula.
    out = tmp_path / "bundle"
    with pytest.raises(SystemExit) as exit_info:
        main(["record", str(out), "--size", size])
    assert exit_info.value.code == EXIT_USAGE
    assert "argument --size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["hist", "--buckets", "0"], "--buckets"),  # once drew one bucket
        (["hist", "--buckets", "-2"], "--buckets"),
        (["dump", "--limit", "-1"], "--limit"),  # once printed every record
    ],
)
def test_a_count_below_its_bound_is_bad_input(argv, option, trace, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([argv[0], trace, *argv[1:]])
    assert exit_info.value.code == EXIT_USAGE
    assert f"argument {option}" in capsys.readouterr().err
