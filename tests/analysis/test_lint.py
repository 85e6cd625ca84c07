"""The project-idiom lint: each rule fires on violations, stays quiet
on the idiomatic shapes the codebase actually uses."""

import textwrap

from repro.analysis.lint import (
    RULE_CODES,
    RULES,
    iter_python_files,
    lint_paths,
    lint_source,
)


def _lint(code, path="src/repro/api/module.py", select=None):
    return lint_source(textwrap.dedent(code), path, select=select)


# --------------------------------------------------------------- RPR001


def test_hook_probe_inside_loop_is_flagged():
    findings = _lint(
        """
        def run(self, items):
            for item in items:
                if self.trace is not None:
                    self.trace.emit(item)
        """
    )
    assert [f.rule for f in findings] == ["RPR001"]
    assert "hoist" in findings[0].message


def test_hoisted_probe_is_clean():
    findings = _lint(
        """
        def run(self, items):
            emit = None if self.trace is None else self.trace.emit
            for item in items:
                if emit is not None:
                    emit(item)
        """
    )
    assert findings == []


def test_non_hook_attribute_in_loop_is_clean():
    findings = _lint(
        """
        def run(self, items):
            for item in items:
                if item.parent is None:
                    continue
        """
    )
    assert findings == []


# --------------------------------------------------------------- RPR002


def test_wall_clock_time_is_flagged():
    findings = _lint(
        """
        import time

        def now():
            return time.time()
        """
    )
    assert [f.rule for f in findings] == ["RPR002"]


def test_from_time_import_alias_is_tracked():
    findings = _lint(
        """
        from time import time as wallclock

        def now():
            return wallclock()
        """
    )
    assert [f.rule for f in findings] == ["RPR002"]


def test_perf_counter_is_allowed():
    findings = _lint(
        """
        import time

        def elapsed():
            return time.perf_counter()
        """
    )
    assert findings == []


def test_module_level_random_in_deterministic_subtree_is_flagged():
    findings = _lint(
        """
        import random

        def jitter():
            return random.random()
        """,
        path="src/repro/api/resilience.py",
    )
    assert [f.rule for f in findings] == ["RPR002"]


def test_seeded_random_instance_is_the_approved_idiom():
    findings = _lint(
        """
        import random

        def stream(seed):
            return random.Random(seed).random()
        """,
        path="src/repro/api/resilience.py",
    )
    assert findings == []


def test_module_random_outside_deterministic_subtree_is_clean():
    findings = _lint(
        """
        import random

        def shuffle(xs):
            random.shuffle(xs)
        """,
        path="src/repro/workloads/demo.py",
    )
    assert findings == []


# --------------------------------------------------------------- RPR003


def test_queue_put_under_lock_is_flagged():
    findings = _lint(
        """
        def submit(self, item):
            with self.lock:
                self.queue.put(item)
        """
    )
    assert [f.rule for f in findings] == ["RPR003"]


def test_sleep_and_open_under_lock_are_flagged():
    findings = _lint(
        """
        import time

        def slow(self):
            with self._lock:
                time.sleep(1)
                open("state")
        """
    )
    assert sorted(f.rule for f in findings) == ["RPR003", "RPR003"]


def test_queue_put_outside_lock_is_clean():
    findings = _lint(
        """
        def submit(self, item):
            with self.lock:
                self.accepting = True
            self.queue.put(item)
        """
    )
    assert findings == []


def test_dict_get_under_lock_is_clean():
    findings = _lint(
        """
        def lookup(self, key):
            with self._lock:
                return self._entries.get(key)
        """
    )
    assert findings == []


def test_non_lock_context_manager_is_clean():
    findings = _lint(
        """
        def drain(self):
            with self._drain_cond:
                self._drain_cond.wait()
        """
    )
    assert findings == []


# --------------------------------------------------------------- RPR004


def test_base_exception_subclass_is_flagged():
    findings = _lint(
        """
        class Crash(BaseException):
            pass
        """,
        path="src/repro/api/service.py",
    )
    assert [f.rule for f in findings] == ["RPR004"]


def test_base_exception_in_resilience_is_allowed():
    findings = _lint(
        """
        class WorkerCrash(BaseException):
            pass
        """,
        path="src/repro/api/resilience.py",
    )
    assert findings == []


def test_plain_exception_subclass_is_clean():
    findings = _lint(
        """
        class Oops(RuntimeError):
            pass
        """
    )
    assert findings == []


# ------------------------------------------------------------ machinery


def test_noqa_waiver_is_per_rule():
    waived = _lint(
        """
        def submit(self, item):
            with self.lock:
                self.queue.put(item)  # noqa: RPR003
        """
    )
    assert waived == []
    wrong_rule = _lint(
        """
        def submit(self, item):
            with self.lock:
                self.queue.put(item)  # noqa: RPR001
        """
    )
    assert [f.rule for f in wrong_rule] == ["RPR003"]


def test_select_restricts_rules():
    code = """
    import time

    def f(self, items):
        for item in items:
            if self.trace is None:
                pass
        return time.time()
    """
    everything = _lint(code)
    assert sorted(f.rule for f in everything) == ["RPR001", "RPR002"]
    only_002 = _lint(code, select=["RPR002"])
    assert [f.rule for f in only_002] == ["RPR002"]


def test_syntax_error_reports_rpr000():
    findings = _lint("def broken(:\n")
    assert [f.rule for f in findings] == ["RPR000"]


def test_finding_describe_format():
    [finding] = _lint(
        """
        import time

        def now():
            return time.time()
        """
    )
    text = finding.describe()
    assert text.startswith("src/repro/api/module.py:")
    assert "RPR002" in text


def test_repo_source_lints_clean():
    """The gate CI enforces: zero findings across src/."""
    findings = lint_paths(["src"])
    assert findings == [], [f.describe() for f in findings]


def test_iter_python_files_is_deterministic(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("y = 2\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.py").write_text("z = 3\n")
    (tmp_path / "ignore.txt").write_text("not python\n")
    files = iter_python_files([str(tmp_path)])
    assert [f.rsplit("/", 1)[-1] for f in files] == ["a.py", "b.py", "c.py"]


def test_rule_listing_is_complete():
    assert RULE_CODES == tuple(rule.code for rule in RULES)
    assert len(RULES) == 4
