"""Shared command-line conventions for ``python -m repro``.

The one CLI speaks a fixed exit-code dialect and carries a
``--version`` flag, so CI scripts and shells can rely on it:

* :data:`EXIT_OK` (0) — success / nothing found
* :data:`EXIT_FAILURE` (1) — the tool ran and the check failed
  (trace diff differs, lint findings, verifier errors)
* :data:`EXIT_USAGE` (2) — bad arguments or unreadable/invalid input
  (argparse's own convention, extended to input errors)

Every count an option takes goes through :func:`positive_int` (or
:func:`non_negative_int` where zero means "none"), and every duration
through :func:`positive_float`: a value out of range is a usage error
naming the option, never a silent reinterpretation.
"""

from __future__ import annotations

import argparse
import math

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


def _bounded(convert, expected: str, ok, bound: str):
    """An argparse ``type=``: ``convert`` the text, then hold it to ``ok``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


#: A count of at least 1 (``--size``, ``--requests``, ``--shards``, ``--buckets``, ``--count``).
positive_int = _bounded(int, "an integer", lambda value: value >= 1, ">= 1")
#: A count where 0 means none (``--limit``).
non_negative_int = _bounded(int, "an integer", lambda value: value >= 0, ">= 0")
#: A finite duration above 0 (``--interval``).
positive_float = _bounded(
    float, "a number", lambda value: math.isfinite(value) and value > 0, "a finite number > 0"
)
