"""Exposition formats over :meth:`MetricsRegistry.snapshot` dicts.

Three renderers, all pure functions over the nested-dict snapshot (so
they run on live registries and on snapshot files alike):

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  histogram series with cumulative ``le`` buckets), ready to serve
  from the future HTTP front end's ``/metrics`` route;
* :func:`render_json` — canonical JSON (sorted keys), the snapshot
  interchange format :func:`save_snapshot` / :func:`load_snapshot`
  round-trip and the CLI diffs;
* :func:`render_pretty` — a terminal table for humans.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Union

from repro.metrics.registry import SNAPSHOT_VERSION, parse_labels


def _prom_labels(series: str, extra: str = "") -> str:
    """Canonical series key -> Prometheus label block."""
    pairs = [f'{key}="{value}"' for key, value in parse_labels(series).items()]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _prom_number(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    return repr(float(value)) if value != int(value) else str(int(value))


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """The snapshot in Prometheus text exposition format."""
    lines: List[str] = []
    for name, family in snapshot["metrics"].items():
        kind = family["kind"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for series, value in family["series"].items():
            if kind == "histogram":
                cumulative = 0
                for bound, count in value["buckets"]:
                    cumulative += count
                    le = 'le="' + _prom_number(bound) + '"'
                    lines.append(
                        f"{name}_bucket{_prom_labels(series, le)} {cumulative}"
                    )
                inf_le = 'le="+Inf"'
                lines.append(
                    f"{name}_bucket{_prom_labels(series, inf_le)} {value['count']}"
                )
                lines.append(
                    f"{name}_sum{_prom_labels(series)} {_prom_number(value['sum'])}"
                )
                lines.append(f"{name}_count{_prom_labels(series)} {value['count']}")
            else:
                lines.append(
                    f"{name}{_prom_labels(series)} {_prom_number(value)}"
                )
    return "\n".join(lines) + "\n"


def render_json(snapshot: Dict[str, object]) -> str:
    """Canonical JSON (sorted keys — byte-stable for identical state)."""
    return json.dumps(snapshot, indent=2, sort_keys=True)


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_pretty(snapshot: Dict[str, object]) -> str:
    """A human-oriented table: one line per series, histograms with
    count/mean/p50/p95/p99."""
    lines: List[str] = []
    for name, family in snapshot["metrics"].items():
        kind = family["kind"]
        for series, value in family["series"].items():
            label = f"{name}{{{series}}}" if series else name
            if kind == "histogram":
                count = value["count"]
                mean = value["sum"] / count if count else 0.0
                lines.append(
                    f"{label:<56} n={count:<8} mean={mean:<12.6g} "
                    f"p50={value['p50']:<12.6g} p95={value['p95']:<12.6g} "
                    f"p99={value['p99']:.6g}"
                )
            else:
                lines.append(f"{label:<56} {_fmt_value(float(value))}")
    return "\n".join(lines) + "\n"


def save_snapshot(
    snapshot: Dict[str, object], path: Union[str, os.PathLike]
) -> None:
    """Write one snapshot as JSON (atomically: temp file + replace, so
    a concurrent ``watch`` never reads a half-written file)."""
    import tempfile

    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(render_json(snapshot))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_snapshot(path: Union[str, os.PathLike]) -> Dict[str, object]:
    """Read a snapshot JSON file, checking the schema version."""
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot {os.fspath(path)!r} has schema version {version!r}; "
            f"this reader understands {SNAPSHOT_VERSION}"
        )
    return snapshot
