"""Shim so legacy (non-PEP-517) editable installs work offline.

The environment has no `wheel` package and no network, so
``pip install -e . --no-build-isolation --no-use-pep517`` is the supported
install path; all metadata lives in pyproject.toml / here.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy>=1.7"],
)
