"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so PEP 660 editable
installs (which need ``bdist_wheel``) fail.  This shim lets
``pip install -e . --no-use-pep517 --no-build-isolation`` take the legacy
``setup.py develop`` path.  There is no ``pyproject.toml``: the metadata
below is all there is.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
)
