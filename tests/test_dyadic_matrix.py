import io

import numpy as np
import pytest
from scipy.linalg import null_space, solve_triangular

from kwalks.dyadic_matrix import (corollary_ratio, dense_matrix, dump_csv, entry,
                                  prefix_quadratic_minima, quadratic_form_rows,
                                  trace)
from kwalks.rng import substream
from kwalks.sign_families import FamilySpec, make_sampler
from kwalks.walks import sup_abs_prefix_batch

REFERENCE_8 = np.array([
    [3, 2, 1, 1, 0, 0, 0, 0],
    [2, 3, 1, 1, 0, 0, 0, 0],
    [1, 1, 3, 2, 0, 0, 0, 0],
    [1, 1, 2, 3, 0, 0, 0, 0],
    [0, 0, 0, 0, 3, 2, 1, 1],
    [0, 0, 0, 0, 2, 3, 1, 1],
    [0, 0, 0, 0, 1, 1, 3, 2],
    [0, 0, 0, 0, 1, 1, 2, 3]])


def block_sum_matrix(n):
    """Oracle: sum of all-ones blocks over dyadic intervals, levels < lg n."""
    lg = n.bit_length() - 1
    mat = np.zeros((n, n), dtype=np.int64)
    for r in range(lg):
        size = 1 << r
        for s in range(n // size):
            lo, hi = s * size, (s + 1) * size
            mat[lo:hi, lo:hi] += 1
    return mat


def test_entry_examples_n8():
    assert entry(8, 1, 1) == 3
    assert entry(8, 1, 2) == 2
    assert entry(8, 1, 3) == 1
    assert entry(8, 1, 5) == 0
    assert entry(8, 7, 8) == 2


@pytest.mark.parametrize("n", [4, 16, 256, 1024])
def test_entry_diagonal_is_lg(n):
    lg = n.bit_length() - 1
    assert entry(n, 1, 1) == lg
    assert entry(n, n, n) == lg


def test_entry_validates():
    with pytest.raises(ValueError):
        entry(8, 0, 1)
    with pytest.raises(ValueError):
        entry(8, 1, 9)
    with pytest.raises(ValueError):
        entry(12, 1, 1)
    with pytest.raises(ValueError):
        entry(2, 1, 1)


def test_dense_matches_reference_n8():
    assert (dense_matrix(8) == REFERENCE_8).all()


@pytest.mark.parametrize("n", [4, 8, 16, 64, 256])
def test_dense_matches_block_decomposition(n):
    assert (dense_matrix(n) == block_sum_matrix(n)).all()


def test_trace_examples():
    assert trace(8) == 24
    assert trace(4) == 8
    assert trace(1024) == 10240
    for n in (4, 16, 4096):
        assert trace(n) == int(dense_matrix(n).trace())


def test_quadratic_form_examples():
    e1 = np.zeros((1, 4))
    e1[0, 0] = 1.0
    assert quadratic_form_rows(4, e1) == pytest.approx([2.0])
    x = np.zeros((2, 8))
    x[0, 0] = x[0, 1] = 1.0
    assert quadratic_form_rows(8, x) == pytest.approx([10.0, 0.0])
    assert quadratic_form_rows(8, x)[1] == 0.0
    with pytest.raises(ValueError):
        quadratic_form_rows(8, np.zeros((1, 7)))
    with pytest.raises(ValueError):
        quadratic_form_rows(8, np.zeros(8))


@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_quadratic_form_matches_dense(n):
    rng = substream(31, n)
    mat = dense_matrix(n).astype(np.float64)
    rows = rng.standard_normal((30, n))
    batched = quadratic_form_rows(n, rows)
    for i, (row, val) in enumerate(zip(rows, batched)):
        assert val == pytest.approx(float(row @ mat @ row), rel=1e-9)
        # a batch of one gives the same value as the row inside a batch
        assert quadratic_form_rows(n, rows[i:i + 1])[0] == val


@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_positive_definite(n):
    np.linalg.cholesky(dense_matrix(n).astype(np.float64))
    rng = substream(32, n)
    assert (quadratic_form_rows(n, rng.standard_normal((10, n))) > 0).all()


def test_prefix_lower_bound_gaussians():
    n, lg = 64, 6
    rng = substream(33, 0)
    rows = rng.standard_normal((1000, n))
    forms = quadratic_form_rows(n, rows)
    best_prefix = (np.cumsum(rows, axis=1) ** 2).max(axis=1)
    assert (forms >= best_prefix / lg - 1e-9).all()
    # one row against single prefixes
    for i in (1, 17, 64):
        assert forms[0] >= rows[0, :i].sum() ** 2 / lg - 1e-9


def test_prefix_lower_bound_uniform_vector():
    n = 8
    x = np.full(n, 1.0 / n)
    # the full-prefix case is stronger
    assert quadratic_form_rows(n, x[None])[0] >= 0.5
    assert quadratic_form_rows(n, x[None])[0] >= x.sum() ** 2 / 3 - 1e-9


def test_prefix_lower_bound_zero_prefix():
    x = np.zeros(8)
    x[0], x[1] = 1.0, -1.0
    assert quadratic_form_rows(8, x[None])[0] >= x[:2].sum() ** 2 / 3 - 1e-9


def constrained_min_oracle(n, i):
    """Independent reduction: eliminate the constraint with a null-space
    basis and solve the unconstrained normal equations."""
    mat = dense_matrix(n).astype(np.float64)
    v = np.zeros(n)
    v[:i] = 1.0
    x0 = v / i
    basis = null_space(v[None, :])
    reduced = basis.T @ mat @ basis
    rhs = -basis.T @ (mat @ x0)
    z = np.linalg.solve(reduced, rhs)
    x = x0 + basis @ z
    return float(x @ mat @ x)


def cholesky_min_oracle(n, i):
    """One prefix at a time: 1 / (v^T A^{-1} v) from a Cholesky factor
    A = L L^T, as |L^{-1} v|^2 = v^T A^{-1} v."""
    lower = np.linalg.cholesky(dense_matrix(n).astype(np.float64))
    v = np.zeros(n)
    v[:i] = 1.0
    y = solve_triangular(lower, v, lower=True)
    return 1.0 / float(y @ y)


@pytest.mark.parametrize("n,i", [(4, 1), (4, 3), (8, 2), (8, 8), (16, 5)])
def test_constrained_min_matches_oracle(n, i):
    assert prefix_quadratic_minima(n)[i - 1] == pytest.approx(
        constrained_min_oracle(n, i), rel=1e-9)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_constrained_min_floor(n):
    lg = n.bit_length() - 1
    minima = prefix_quadratic_minima(n)
    assert len(minima) == n
    assert minima.min() >= 1.0 / lg - 1e-9
    assert minima[-1] == pytest.approx(cholesky_min_oracle(n, n), rel=1e-12)


def test_constrained_min_full_prefix_half():
    assert prefix_quadratic_minima(8)[8 - 1] >= 0.5 - 1e-9


def test_corollary_ratio_bounds():
    assert 0 < corollary_ratio(8) <= 8 * 9
    assert corollary_ratio(4) <= 16 + 1e-9
    for n in (8, 64, 256):
        lg = n.bit_length() - 1
        normalized = corollary_ratio(n) / (n * lg * lg)
        assert 0 < normalized <= 1 + 1e-12


def test_certificate_expectation_and_pathwise_bound():
    # E[h^T A h] = Tr(A) for the pairwise family, and the quadratic form
    # dominates every squared prefix sum divided by lg n, realization by
    # realization
    n, lg = 64, 6
    spec = FamilySpec(kind="AdversarialStage", n=n, stage="H")
    batch = make_sampler(spec).sample_batch(substream(6, 0), 10 ** 4)
    forms = quadratic_form_rows(n, batch)
    stderr = forms.std(ddof=1) / len(forms) ** 0.5
    assert abs(forms.mean() - trace(n)) <= 4 * stderr
    sups = sup_abs_prefix_batch(batch).astype(np.float64)
    assert (sups ** 2 <= forms * lg + 1e-9).all()


def test_dump_csv():
    out = io.StringIO()
    dump_csv(8, out)
    rows = [line.split(",") for line in out.getvalue().strip().splitlines()]
    assert len(rows) == 8
    assert [int(v) for v in rows[0]] == REFERENCE_8[0].tolist()
    with pytest.raises(ValueError):
        dump_csv(128, io.StringIO())
