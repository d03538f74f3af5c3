"""Setup shim: the offline environment lacks the ``wheel`` package, so
``pip install -e .`` cannot build an editable wheel (PEP 660). Run
``python setup.py develop`` instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
