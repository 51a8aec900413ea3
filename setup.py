"""Packaging for ``pip install -e .`` / ``python setup.py develop``.

All the metadata there is lives here (there is no ``pyproject.toml``):
the ``repro`` package under ``src/``, its version read from
``src/repro/_version.py`` without importing the package, and no
dependency — the library is stdlib-only, so an install downloads
nothing.  Where the ``wheel`` package is missing (and so is the network
to fetch it) ``pip install -e .`` cannot build an editable wheel;
``python setup.py develop`` works with bare setuptools.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"

setup(
    name="repro",
    version=re.search(
        r'^__version__ = "([^"]+)"', VERSION_FILE.read_text(), re.MULTILINE
    ).group(1),
    description=(
        "Reachability queries with label and substructure constraints "
        "on knowledge graphs (LSCR): UIS, UIS*, INS and a query service"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
