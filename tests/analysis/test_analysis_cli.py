"""The ``repro.analysis`` CLI, and the shared CLI conventions
(``--version``, exit codes) across every ``python -m repro.*`` tool."""

import pytest

from repro import __version__
from repro.analysis.__main__ import main as analysis_main
from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, version_string
from repro.metrics.__main__ import main as metrics_main
from repro.trace.__main__ import main as trace_main

TINY = ["--banks", "2", "--regs", "3", "--pes", "2"]


# ------------------------------------------------------------- verify


def test_verify_overflow_kernel_is_clean(capsys):
    assert analysis_main(["verify", "--kernel", "overflow"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "OK" in out
    assert "2x3 regfile" in out  # overflow defaults to the starved config


def test_verify_circuit_and_hmm_kernels(capsys):
    assert analysis_main(["verify", "--kernel", "circuit"]) == EXIT_OK
    assert analysis_main(["verify", "--kernel", "hmm", *TINY]) == EXIT_OK


def test_verify_with_planted_mutation_fails(capsys):
    code = analysis_main(["verify", "--mutate", "stale-reload"])
    assert code == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "stale-address read" in out
    assert "planted bug: stale-reload" in out


def test_verify_unknown_mutation_is_usage_error(capsys):
    assert analysis_main(["verify", "--mutate", "nope"]) == EXIT_USAGE


def test_verify_mutation_not_applicable_is_usage_error(capsys):
    # The default 64x32 regfile never spills this kernel, so the
    # spill-targeting mutation has no site.
    code = analysis_main(
        ["verify", "--kernel", "circuit", "--mutate", "stale-reload"]
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("flag", ["--regs", "--banks"])
def test_verify_zero_sized_config_is_usage_error(flag, capsys):
    # Zero registers or banks used to fail inside the scheduler with a
    # traceback and the findings exit code (and --pes 0 hung it).
    assert analysis_main(["verify", flag, "0"]) == EXIT_USAGE
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("kernel, size", [("hmm", "-1"), ("circuit", "0"), ("overflow", "two")])
def test_verify_size_below_one_is_usage_error(kernel, size, capsys):
    # A negative size used to die in numpy with exit 1, and 0 meant the default.
    with pytest.raises(SystemExit) as exit_info:
        analysis_main(["verify", "--kernel", kernel, "--size", size])
    assert exit_info.value.code == EXIT_USAGE
    assert "argument --size" in capsys.readouterr().err


def test_list_mutations(capsys):
    assert analysis_main(["verify", "--list-mutations"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "stale-reload" in out and "pre-PR 5" in out


# --------------------------------------------------------------- lint


def test_lint_repo_src_is_clean(capsys):
    assert analysis_main(["lint", "src"]) == EXIT_OK
    assert "clean" in capsys.readouterr().out


def test_lint_finds_planted_violation(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert analysis_main(["lint", str(bad)]) == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "RPR002" in out and "1 finding(s)" in out


def test_lint_select_filters_rules(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert (
        analysis_main(["lint", str(bad), "--select", "RPR003"]) == EXIT_OK
    )


def test_lint_missing_path_is_usage_error(capsys):
    assert analysis_main(["lint", "/no/such/path"]) == EXIT_USAGE
    assert analysis_main(["lint"]) == EXIT_USAGE


def test_lint_list_rules(capsys):
    assert analysis_main(["lint", "--list-rules"]) == EXIT_OK
    out = capsys.readouterr().out
    for code in ("RPR001", "RPR002", "RPR003", "RPR004"):
        assert code in out


# --------------------------------------- shared conventions, all CLIs


@pytest.mark.parametrize(
    "main,prog",
    [
        (analysis_main, "python -m repro.analysis"),
        (trace_main, "python -m repro.trace"),
        (metrics_main, "python -m repro.metrics"),
    ],
)
def test_every_cli_has_the_shared_version_flag(main, prog, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == EXIT_OK
    assert capsys.readouterr().out.strip() == f"{prog} {__version__}"


@pytest.mark.parametrize(
    "main", [analysis_main, trace_main, metrics_main]
)
def test_every_cli_rejects_bad_arguments_with_exit_2(main, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == EXIT_USAGE


def test_unreadable_input_is_usage_error(capsys):
    assert trace_main(["summary", "/no/such/trace"]) == EXIT_USAGE
    assert metrics_main(["show", "/no/such/snapshot"]) == EXIT_USAGE


def test_version_string_single_source():
    assert version_string("x") == f"x {__version__}"
