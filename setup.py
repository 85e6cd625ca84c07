"""Packaging for the REASON reproduction.

The version is single-sourced from ``repro.__version__`` — parsed
textually so building an sdist never needs the runtime dependencies
importing :mod:`repro` would pull in.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    init = Path(__file__).parent / "src" / "repro" / "__init__.py"
    match = re.search(
        r'^__version__\s*=\s*"([^"]+)"', init.read_text(encoding="utf-8"), re.M
    )
    if match is None:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-reason",
    version=read_version(),
    description=(
        "Reproduction of REASON: accelerating probabilistic logical "
        "reasoning for scalable neuro-symbolic intelligence (HPCA 2026)"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    # Test modules import hypothesis at module top: collection needs it;
    # pytest-benchmark backs the `bench_*` table printers in benchmarks/.
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
    ],
)
