"""Fixtures shared by the test modules."""

import pytest

from avekit.linalg import TridiagonalMatrix


@pytest.fixture()
def no_dense_tridiagonal(monkeypatch):
    """Make any dense copy of a TridiagonalMatrix fail the test."""

    def refuse(self):
        raise AssertionError("the tridiagonal path built a dense copy")

    monkeypatch.setattr(TridiagonalMatrix, "to_dense", refuse)
