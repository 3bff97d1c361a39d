import numpy as np
import pytest

from limitops import Space, Window

# 6 x 7 grid graph, node i * 7 + j at row i and column j
GRID = Space(kind="graph", adjacency={
    i * 7 + j: [a * 7 + b for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                if 0 <= a < 6 and 0 <= b < 7]
    for i in range(6) for j in range(7)})
Z1_FIBER3 = Space(kind="lattice", dim=1, fiber=3)


@pytest.fixture(scope="session")
def z1():
    return Space(kind="lattice", dim=1, metric="linf")


@pytest.fixture(scope="session")
def z2():
    return Space(kind="lattice", dim=2, metric="linf")


@pytest.fixture(scope="session")
def z2_l1():
    return Space(kind="lattice", dim=2, metric="l1")


def dense_block(A, rows_window, cols_window):
    return A.block(rows_window.points, cols_window.points)


def svd_norm(M):
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def svd_lower(M):
    """Smallest singular value of a tall block; 0 for empty columns."""
    if M.size == 0 or M.shape[1] == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def window(space, radius, center=None):
    if center is None:
        center = space.basepoint
    return Window(space, center, radius)

