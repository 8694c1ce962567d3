"""The per-row kernels against the batched-matmul idioms they replaced, bit for bit.

`core.row_dot` is np.vecdot, and the quadratic view's values, gradients and
closed-form inner maximizer take np.vecmat and np.matvec. Each calls, row by
row, the BLAS routine that a (1, d) @ (d, 1), (1, d) @ (d, e) or
(d, e) @ (e, 1) matmul calls, so it must give that matmul's bits: on 1 to 40
columns, with (K, N, d) leading axes, on strided block views such as
G[:, :d1], and on signed zeros, subnormals and 1e300. The idioms are kept in
`reference_math`.
"""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedmm.core import row_dot, row_norms
from fedmm.objectives import QuadraticBars, _closed_form_psi, _StackedQuadratic
from reference_math import (
    matmul_closed_form_psi,
    matmul_quadratic_joint_grads,
    matmul_quadratic_values,
    matmul_row_dot,
    matmul_row_norms,
)

# 1e300 entries overflow on both sides alike
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")

SRC = Path(__file__).resolve().parent.parent / "src"
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e300, -1e300]
ENTRIES = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0, allow_nan=False))


def bits(a) -> np.ndarray:
    # the float64 bit patterns, so that -0.0 and +0.0 differ and NaN equals its own bits
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def matrix(shape):
    return arrays(np.float64, shape, elements=ENTRIES)


@st.composite
def row_pairs(draw):
    """Two (K, N, d) stacks, or their strided column blocks, and the block split."""
    k, n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 40))
    X, Y = draw(matrix((k, n, d))), draw(matrix((k, n, d)))
    split = draw(st.integers(0, d))
    if draw(st.booleans()):
        X = X[:, 0]  # (N, d) rows without a leading axis
        Y = Y[:, 0]
    return X, Y, split


@PROPERTY
@given(row_pairs())
def test_row_dot_and_norms_match_the_matmul_idiom(case):
    X, Y, split = case
    assert_same_bits(row_dot(X, Y), matmul_row_dot(X, Y))
    assert_same_bits(row_norms(X), matmul_row_norms(X))
    for block in (np.s_[..., :split], np.s_[..., split:]):  # strided views, as the solve's G[:, :d1]
        if X[block].shape[-1]:
            assert_same_bits(row_dot(X[block], Y[block]), matmul_row_dot(X[block], Y[block]))
            assert_same_bits(row_norms(X[block]), matmul_row_norms(X[block]))


@st.composite
def quadratic_cases(draw):
    """A quadratic view on unvalidated matrices and (K, N, d1 + d2) joint rows, or (N, d1 + d2)."""
    n, d1, d2 = draw(st.integers(1, 4)), draw(st.integers(1, 20)), draw(st.integers(1, 20))
    A, B, C = draw(matrix((n, d1, d1))), draw(matrix((n, d1, d2))), draw(matrix((n, d2, d2)))
    a, c = draw(matrix((n, d1))), draw(matrix((n, d2)))
    clients = [SimpleNamespace(dims=(d1, d2), A=A[i], B=B[i], C=C[i], a=a[i], c=c[i]) for i in range(n)]
    rows = draw(matrix((draw(st.integers(1, 3)), n, d1 + d2 + 2)))[..., 1:-1]  # strided joint rows
    return _StackedQuadratic(clients), rows if draw(st.booleans()) else rows[0]


@PROPERTY
@given(quadratic_cases())
def test_quadratic_view_matches_the_matmul_idiom(case):
    view, Z = case
    d1 = view.dims[0]
    want = matmul_quadratic_joint_grads(view, Z)
    assert_same_bits(view.values(Z), matmul_quadratic_values(view, Z))
    assert_same_bits(view.joint_grads(Z), want)
    assert_same_bits(view.grad_psi(Z), want[..., d1:])


@st.composite
def closed_form_cases(draw):
    """Averaged quadratic matrices with a positive definite Cbar and (K, d1) omegas."""
    d1, d2, k = draw(st.integers(1, 40)), draw(st.integers(1, 20)), draw(st.integers(1, 5))
    Q = draw(arrays(np.float64, (d2, d2), elements=st.floats(-2.0, 2.0)))
    B, c = draw(matrix((d1, d2))), draw(matrix((d2,)))
    bars = QuadraticBars(np.eye(d1), B, Q @ Q.T + np.eye(d2), np.zeros(d1), c)
    omegas = draw(matrix((k, d1 + 1)))
    return bars, omegas[:, 1:] if draw(st.booleans()) else omegas[:, :d1]


@PROPERTY
@given(closed_form_cases())
def test_closed_form_psi_matches_the_matmul_idiom(case):
    bars, omegas = case
    assert_same_bits(_closed_form_psi(bars, omegas), matmul_closed_form_psi(bars, omegas))


def test_old_numpy_is_an_import_error_naming_the_version(tmp_path):
    # a numpy before 2.2 has no np.matvec, np.vecmat or np.vecdot
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text('__version__ = "1.26.4"\n')
    proc = subprocess.run(
        [sys.executable, "-c", "import fedmm"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": f"{tmp_path}:{SRC}"},
    )
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: fedmm requires numpy>=2.2")
    assert "found numpy 1.26.4" in last
