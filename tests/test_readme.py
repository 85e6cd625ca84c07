"""The README states what the code does; a change's measurements belong
in its CHANGES.md entry.  A paragraph that leads with a bold headline
naming a change, with "Since X.Y.Z" or with a sentence saying what was
"deleted in X.Y.Z", or a parent → change table, is a changelog entry
that landed in the wrong file."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: A paragraph lead such as ``**Execute once per artifact (PR 13).**``.
CHANGE_LEAD = re.compile(r"^\*\*[^*]*\(PR \d+\)\.\*\*", re.M)
#: A before/after table: a header cell such as ``parent → change (×)``.
BEFORE_AFTER = re.compile(r"^\|.*parent → change", re.M)
#: A paragraph that opens on a release: ``Since 1.24.0 the test ...``.
SINCE_LEAD = re.compile(r"(?:\A|(?<=\n\n))Since \d+\.\d+\.\d+")
#: A paragraph whose first sentence says what went: ``... were deleted in 1.19.0``.
DELETED_LEAD = re.compile(r"(?:\A|(?<=\n\n))(?:[^.\n]|\n(?!\n))*\bdeleted in \d+\.\d+\.\d+")


def changelog_lines(text):
    return [
        text[: match.start()].count("\n") + 1
        for pattern in (CHANGE_LEAD, BEFORE_AFTER, SINCE_LEAD, DELETED_LEAD)
        for match in pattern.finditer(text)
    ]


def test_the_readme_keeps_no_changelog():
    lines = changelog_lines(README.read_text(encoding="utf-8"))
    assert not lines, (
        f"README.md lines {lines} read as a change's report: its numbers go "
        "in the change's CHANGES.md entry, and the README says what the code does"
    )


def test_both_shapes_are_recognised():
    text = (
        "Intro.\n\n**Run it faster (PR 7).**  It got faster.\n\n"
        "| workload | `requests_per_s` parent → change (×) |\n|---|---|\n"
        "Prose may say PR 7 or (PR 7) mid-line.\n\n"
        "Since 1.24.0 the test also fails on a function.\n\n"
        "Five mechanisms that nothing ran were\ndeleted in 1.19.0, because.\n\n"
        "Mid-paragraph, since 1.24.0 and deleted in 1.19.0 are prose.  A later\n"
        "sentence may say what was deleted in 1.19.0.\n"
    )
    assert sorted(changelog_lines(text)) == [3, 5, 9, 11]
