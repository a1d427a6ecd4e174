"""Shared helpers for the ``pytest -m smoke`` gates.

Each smoke module drives the same ``repro`` command a user would type,
into ``tmp_path``, and asserts on its exit code, its output and the
artifacts it writes.  Tier-1 deselects the marker (``addopts`` in
``pyproject.toml``); run the gates with::

    PYTHONPATH=src python -m pytest -m smoke
"""

import contextlib
import io

import pytest

from repro.cli import main


@pytest.fixture(scope="session")
def cli():
    """``cli(*argv)`` runs ``repro`` in-process; returns (code, stdout)."""
    def run(*argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([str(arg) for arg in argv])
        return code, buffer.getvalue()
    return run
