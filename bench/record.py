"""Result records: what is declared, where it was measured, how to
store it."""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy

from bench import SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parent.parent
DECLARATION = REPO_ROOT / "BENCHMARK.json"
#: Where span logs, result files and the disk-store probe's files go
#: (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Metrics that must repeat exactly between two runs of the same seed
#: and seconds: the modeled clock, the correctness share, and (outside
#: ``metrics``) the report digest.  ``BENCHMARK.json`` cannot say
#: "exact" — its bounds also have to cover the spread across seeds —
#: so ``bench compare`` enforces it from here.
EXACT_METRICS = ("modeled_cycles", "modeled_energy_j", "ok_share")


def declaration() -> dict:
    return json.loads(DECLARATION.read_text(encoding="utf-8"))


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    declared in ``BENCHMARK.json`` — the one place names and units
    live."""
    declared = declaration()
    return {
        group: {metric["name"]: metric["unit"] for metric in declared[group]}
        for group in ("end_to_end", "per_layer")
    }


def git_sha() -> Optional[str]:
    """HEAD of this checkout, read from ``.git`` directly; None when
    the checkout is a plain directory (the driver's are)."""
    git_dir = REPO_ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git_dir / ref).is_file():
            return (git_dir / ref).read_text(encoding="utf-8").strip()
        for line in (git_dir / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    """What two result files need to agree on to be comparable."""
    return {
        "schema": SCHEMA_VERSION,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "unix_time": time.time(),
    }


def save(path: Path, runs: List[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"schema": SCHEMA_VERSION, "runs": runs}, indent=1), encoding="utf-8"
    )


def load(path: Path) -> List[dict]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: result schema {data.get('schema')!r}, this bench reads {SCHEMA_VERSION}"
        )
    return data["runs"]
