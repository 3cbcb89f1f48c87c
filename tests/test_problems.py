"""Advection problem generator tests.

The 2-D operator is checked entrywise against the output of the PyAMG
``advection_2d`` gallery generator for a 4x4-point grid at the pi/4
direction, frozen below as coordinate triplets.  That generator numbers the
(ny-1) x (nx-1) interior points from the top row down, so our index
``j*nx + i`` maps to its ``(ny-1-j)*nx + i``.
"""

import numpy as np
import pytest

from airmg import AdvectionProblem, build_advection_1d, build_advection_2d

# advection_2d((4, 4), theta=pi/4): 9 unknowns, 21 entries.
GALLERY_PI4 = [
    (0, 0, 1.414213562373095), (0, 3, -0.7071067811865475),
    (1, 0, -0.7071067811865476), (1, 1, 1.414213562373095),
    (1, 4, -0.7071067811865475),
    (2, 1, -0.7071067811865476), (2, 2, 1.414213562373095),
    (2, 5, -0.7071067811865475),
    (3, 3, 1.414213562373095), (3, 6, -0.7071067811865475),
    (4, 3, -0.7071067811865476), (4, 4, 1.414213562373095),
    (4, 7, -0.7071067811865475),
    (5, 4, -0.7071067811865476), (5, 5, 1.414213562373095),
    (5, 8, -0.7071067811865475),
    (6, 6, 1.414213562373095),
    (7, 6, -0.7071067811865476), (7, 7, 1.414213562373095),
    (8, 7, -0.7071067811865476), (8, 8, 1.414213562373095),
]


def test_1d_single_cell():
    A = build_advection_1d(1, 2.5)
    assert np.array_equal(A.to_dense(), [[2.5]])


def test_1d_bidiagonal_structure():
    A = build_advection_1d(3, 1.0)
    expected = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(A.to_dense(), expected)


def test_2d_with_single_row_matches_1d():
    A2, rhs = build_advection_2d(AdvectionProblem(nx=3, ny=1, vx=1.0, vy=0.0))
    A1 = build_advection_1d(3, 1.0)
    assert np.array_equal(A2.to_dense(), A1.to_dense())
    assert np.array_equal(rhs, np.zeros(3))


def test_2d_interior_stencil_values():
    v = 0.7071067811865476
    A, _ = build_advection_2d(AdvectionProblem(nx=4, ny=4, vx=v, vy=v))
    # unknown (i=2, j=2) is interior: south, west, diagonal in column order
    lo, hi = A.row_offsets[2 * 4 + 2], A.row_offsets[2 * 4 + 3]
    cols, vals = A.col_indices[lo:hi], A.values[lo:hi]
    assert list(cols) == [2 * 4 + 2 - 4, 2 * 4 + 2 - 1, 2 * 4 + 2]
    assert vals[0] == -0.7071067811865476
    assert vals[1] == -0.7071067811865476
    assert vals[2] == 1.4142135623730951


def test_2d_matches_reference_gallery_generator():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=3, ny=3, vx=vx, vy=vy))
    dense = A.to_dense()
    nx = ny = 3
    perm = np.array([(ny - 1 - (m // nx)) * nx + (m % nx) for m in range(9)])
    mapped = np.zeros((9, 9))
    for i, j, v in GALLERY_PI4:
        mapped[i, j] = v
    ours = np.zeros((9, 9))
    for m1 in range(9):
        for m2 in range(9):
            ours[perm[m1], perm[m2]] = dense[m1, m2]
    assert mapped.shape == ours.shape
    assert np.max(np.abs(ours - mapped)) <= 1e-14 * np.max(np.abs(mapped))
    assert np.count_nonzero(ours) == len(GALLERY_PI4)


def test_2d_rhs_is_zero():
    _, rhs = build_advection_2d(AdvectionProblem(nx=5, ny=4, vx=0.3, vy=0.9))
    assert np.array_equal(rhs, np.zeros(20))


def test_2d_lower_triangular():
    A, _ = build_advection_2d(AdvectionProblem(nx=6, ny=5, vx=1.0, vy=0.5))
    from airmg.sparse import _row_index
    assert np.all(A.col_indices <= _row_index(A))


def test_2d_row_sums_reflect_boundary():
    vx, vy = 0.8, 0.3
    nx, ny = 5, 4
    A, _ = build_advection_2d(AdvectionProblem(nx=nx, ny=ny, vx=vx, vy=vy))
    sums = A.to_dense().sum(axis=1)
    for idx in range(nx * ny):
        i, j = idx % nx, idx // nx
        expected = (vx if i == 0 else 0.0) + (vy if j == 0 else 0.0)
        assert sums[idx] == pytest.approx(expected, abs=1e-15)


def test_2d_stencil_invariant_under_refinement():
    vx, vy = np.sqrt(2 / 3), np.sqrt(1 / 3)
    values = []
    for nx in (8, 16, 32):
        A, _ = build_advection_2d(AdvectionProblem(nx=nx, ny=nx, vx=vx, vy=vy))
        i = (nx + 1) * 2  # an interior unknown
        values.append(tuple(A.values[A.row_offsets[i]:A.row_offsets[i + 1]]))
    assert values[0] == values[1] == values[2]


def test_rectangular_grid():
    A, rhs = build_advection_2d(AdvectionProblem(nx=10, ny=3, vx=0.5, vy=0.5))
    assert A.nrows == 30 and len(rhs) == 30


def test_velocity_validation():
    with pytest.raises(ValueError):
        AdvectionProblem(nx=4, ny=4, vx=-1.0, vy=1.0)
    with pytest.raises(ValueError):
        AdvectionProblem(nx=4, ny=4, vx=0.0, vy=0.0)
    with pytest.raises(ValueError):
        AdvectionProblem(nx=0, ny=4, vx=1.0, vy=0.0)
    with pytest.raises(ValueError):
        build_advection_1d(4, 0.0)


def test_2d_requires_ny():
    with pytest.raises(ValueError):
        build_advection_2d(AdvectionProblem(nx=4, ny=0, vx=1.0, vy=0.0))


def test_1d_forward_substitution_oracle():
    n = 64
    A = build_advection_1d(n, 1.0)
    rng = np.random.default_rng(3)
    b = rng.uniform(-1, 1, n)
    dense = A.to_dense()
    x = np.zeros(n)
    for i in range(n):
        x[i] = (b[i] - dense[i, :i] @ x[:i]) / dense[i, i]
    assert np.linalg.norm(dense @ x - b) <= 1e-13 * np.linalg.norm(b)
