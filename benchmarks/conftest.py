"""Pytest fixtures for the benchmark harness.

The data the benchmarks share — package samples, the micro catalog, the
result ``signature`` — lives in :mod:`benchmarks.workloads`; this module
only holds the pytest fixture adapters.  (The workloads module itself still
reaches into ``tests/conftest.py`` for the micro package classes, so pytest
must be installed wherever benchmarks run, the ``--quick`` scripts too.)
"""

from __future__ import annotations

import pytest

from repro.spack.compilers import CompilerRegistry
from repro.spack.repo import builtin_repository


@pytest.fixture(scope="session")
def repo():
    return builtin_repository()


@pytest.fixture(scope="session")
def compilers():
    return CompilerRegistry()
