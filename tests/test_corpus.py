"""The corpus contract: unique names, a fresh kernel per call, and a
corpus entry behind every name a pin table uses.

The pin tables are read from their files with ``ast`` (no test module
imports another), so a pin keyed by a name the corpus lost fails here
by file and table, not as a ``KeyError`` inside one pin."""

import ast
from pathlib import Path

from tests import corpus

TESTS = Path(__file__).resolve().parent

#: file -> the module-level pin tables in it that key into the corpus.
PIN_TABLES = {
    "api/test_report_identity.py": ("RECORDED", "RECORDED_PROGRAMS", "RECORDED_TRACES"),
    "core/test_program_pins.py": ("PINNED",),
    "core/test_program_trace_pins.py": ("PINNED",),
    "core/test_dag_pins.py": ("PINNED", "MEMORY", "REPORTS"),
    "logic/test_search_identity.py": ("RECORDED",),
    "analysis/test_finding_pins.py": ("PINNED",),
}


def pin_tables():
    """``(file, table, keys)`` for every table of :data:`PIN_TABLES`."""
    for path, names in PIN_TABLES.items():
        found = {}
        for node in ast.parse((TESTS / path).read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                found[node.targets[0].id] = node.value
        for name in names:
            assert name in found, f"{path} has no table {name}"
            yield path, name, list(ast.literal_eval(found[name]))


def missing_names(key) -> list:
    """What of a pin key's names the corpus lacks.  A key is an entry,
    an (entry, config name or ``ArchConfig`` overrides) pair, or a
    verifier case: ``mutation/<entry>/<mutation>``,
    ``negative/<name>`` or ``execution/<drift>`` (on ``overflow``)."""
    if isinstance(key, tuple):
        entry, config = key
        config_missing = isinstance(config, str) and config not in corpus.CONFIGS
        return [entry] * (entry not in corpus.ENTRIES) + [config] * config_missing
    family, _, rest = key.partition("/")
    if family == "negative":
        return [rest] * (rest not in corpus.NEGATIVES)
    entry = {"mutation": rest.partition("/")[0], "execution": "overflow"}.get(family, key)
    return [entry] * (entry not in corpus.ENTRIES)


def test_names_are_unique_calls_are_fresh_and_every_pin_has_an_entry():
    assert len(corpus.ENTRIES) == sum(map(len, corpus.FAMILIES.values()))

    for name in corpus.ENTRIES:
        first, first_options = corpus.build(name)
        corpus.key(first)  # warms the memo and, where there is one, the plan
        second, second_options = corpus.build(name)
        assert second is not first and second_options is not first_options, name
        assert second._key_memo is None and first._key_memo is not None, name
        plan = getattr(second, "_plan", None)
        assert plan is None or plan is not first._plan, name
        calibration = second_options.get("calibration")
        assert calibration is None or calibration is not first_options["calibration"], name

    missing = [
        f"{path}::{table}[{key!r}]: {names}"
        for path, table, keys in pin_tables()
        for key in keys
        if (names := missing_names(key))
    ]
    assert not missing, "pinned names the corpus lacks: " + "; ".join(missing)
