import numpy as np
import pytest


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
