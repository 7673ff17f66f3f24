import os

import numpy as np
import pytest

from safa.corpus import normalize_text


def _save_similarity_matrix(path, matrix):
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"SIM v1 {matrix.shape[0]}\n")
        for row in matrix:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def save_similarity_matrix():
    """A writer of the 'SIM v1 <n>' format that ``load_similarity_matrix`` reads."""
    return _save_similarity_matrix


def _brute_force_sets(records):
    out = {}
    for r in records:
        src = normalize_text(r.source_text)
        targets = {
            normalize_text(q.target_text)
            for q in records
            if normalize_text(q.source_text) == src
        }
        if len(targets) >= 2:
            out[src] = targets
    return out


@pytest.fixture
def brute_force_sets():
    """The translation-set oracle: each normalized source with two or more normalized targets, and those targets."""
    return _brute_force_sets


def _fork_fails(*_):
    raise OSError("fork refused")


@pytest.fixture
def fork_fails():
    """A stand-in for ``os.fork`` that always fails."""
    return _fork_fails


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def assert_no_child_left():
    """An assertion that this process has no child left to reap."""
    return _assert_no_child_left
