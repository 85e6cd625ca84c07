"""Shared command-line conventions for the ``python -m repro.*`` tools.

Every CLI in the repo (``repro.trace``, ``repro.metrics``,
``repro.analysis``) speaks the same exit-code dialect and carries the
same ``--version`` flag, so CI scripts and shells can treat them
uniformly:

* :data:`EXIT_OK` (0) — success / nothing found
* :data:`EXIT_FAILURE` (1) — the tool ran and the check failed
  (trace diff differs, lint findings, verifier errors)
* :data:`EXIT_USAGE` (2) — bad arguments or unreadable/invalid input
  (argparse's own convention, extended to input errors)
"""

from __future__ import annotations

import argparse

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def version_string(prog: str) -> str:
    """``prog x.y.z`` from the package version (single source)."""
    from repro import __version__

    return f"{prog} {__version__}"


def add_version(parser: argparse.ArgumentParser, prog: str) -> None:
    """Attach the shared ``--version`` flag to a CLI parser."""
    parser.add_argument(
        "--version",
        action="version",
        version=version_string(prog),
        help="print the repro package version and exit",
    )


def positive_int(text: str) -> int:
    """argparse ``type=`` for a count of at least 1 (a demo kernel's
    ``--size``): anything else is a usage error with a message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value
