"""Setuptools shim.

Metadata lives in pyproject.toml; this file exists so that
``pip install -e .`` works on offline machines where the ``wheel``
package (needed for PEP 660 editable builds) is unavailable — pip then
falls back to the legacy ``setup.py develop`` path.
"""

from setuptools import setup

setup()
