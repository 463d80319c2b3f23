"""Setup shim so the package installs editable without network access.

The environment has no wheel package and no network, so PEP 517 editable
builds fail; ``python setup.py develop`` / legacy ``pip install -e .`` paths
use this file together with pyproject.toml metadata.
"""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0", "scipy>=1.10", "networkx>=3.0"],
)
