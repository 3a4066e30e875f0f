"""Legacy setup shim.

The offline environment lacks the ``wheel`` package that PEP 660
editable installs require, so ``pip install -e . --no-use-pep517
--no-build-isolation`` takes the legacy ``setup.py develop`` path via
this file.  It declares no metadata: the package runs from the source
tree with ``PYTHONPATH=src`` (see README.md).
"""

from setuptools import setup

setup()
