"""Package metadata for ``repro``, the Stone Age distributed computing reproduction.

``pip install .`` installs the library from the ``src/`` layout.  NumPy is
its one runtime dependency: the graph layer and the vectorized engines are
built on it, so ``import repro`` needs it.  The version is read from
``src/repro/__init__.py``, where it is stated once, without importing the
package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="A reproduction of Stone Age Distributed Computing (networked FSMs)",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
