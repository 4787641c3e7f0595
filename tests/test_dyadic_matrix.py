import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, null_space, solve_triangular

from kwalks import dyadic_matrix
from kwalks.dyadic_matrix import (DENSE_MATRIX_LIMIT, check_dense_size,
                                  corollary_ratio, dense_matrix, dump_csv, entry,
                                  prefix_quadratic_minima, quadratic_form_rows,
                                  trace)
from kwalks.experiments import ExperimentConfig, run
from kwalks.rng import substream
from kwalks.sign_families import (FamilySpec, ResourceLimitError, make_sampler,
                                  tile_rows)
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


def one_shot_minima(n):
    """All n prefix indicators in one cho_solve, each v^i . A^{-1} v^i as
    a column sum of (v * A^{-1} v)."""
    factor = cho_factor(dense_matrix(n), lower=True)
    prefixes = np.triu(np.ones((n, n)))
    solved = cho_solve(factor, prefixes)
    return 1.0 / (prefixes * solved).sum(axis=0)


@pytest.mark.parametrize("n", [4, 8, 64, 256, 1024])
def test_prefix_minima_match_one_shot_solve_bit_for_bit(n):
    assert tile_rows(1024) < 1024          # n = 1024 spans several tiles
    assert prefix_quadratic_minima(n).tobytes() == one_shot_minima(n).tobytes()


def test_prefix_minima_hold_one_n_by_n_array():
    n = 1024
    prefix_quadratic_minima(n)             # LAPACK loaded outside the trace
    tracemalloc.start()
    try:
        prefix_quadratic_minima(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n


FACTOR_ORDER_CHECK = """
import hashlib
import numpy as np
from kwalks import dyadic_matrix
if {scipy_first}:
    import scipy.linalg
factors = {{n: dyadic_matrix._cholesky(n) for n in (4, 64, 1024)}}
minima = dyadic_matrix.prefix_quadratic_minima(1024)
from scipy.linalg import cho_factor
for n, factor in factors.items():
    c, _ = cho_factor(dyadic_matrix.dense_matrix(n), lower=True)
    assert np.tril(factor).tobytes() == np.tril(c).tobytes(), n
print(hashlib.sha256(minima.tobytes()).hexdigest())
"""


def test_factor_matches_cho_factor_whichever_loads_first():
    # _cholesky loads LAPACK from scipy's wrapper file, so scipy.linalg can
    # hold a second module object of it; either load order gives
    # cho_factor's lower triangle bit for bit, and the same minima
    src = str(Path(dyadic_matrix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    digests = {subprocess.run(
        [sys.executable, "-c", FACTOR_ORDER_CHECK.format(scipy_first=first)],
        env=env, check=True, capture_output=True, text=True).stdout
        for first in (True, False)}
    assert len(digests) == 1


def test_indefinite_matrix_raises_naming_the_order(monkeypatch):
    monkeypatch.setattr(dyadic_matrix, "dense_matrix",
                        lambda n: -np.eye(n, order="F"))
    with pytest.raises(RuntimeError, match="order 8 is not positive definite"):
        prefix_quadratic_minima(8)


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("gaussians", [1, 129, 1000])
def test_matrix_check_gaussian_tiles_match_one_shot_check(monkeypatch, n,
                                                          gaussians):
    seen = []

    def recording(order, rows):
        seen.append(rows.copy())
        return quadratic_form_rows(order, rows)

    monkeypatch.setattr(dyadic_matrix, "quadratic_form_rows", recording)
    table = run(ExperimentConfig(kind="matrix-check", seed=9, params={
        "n_list": str(n), "gaussian_vectors": str(gaussians)}))
    (verdict,) = [row[2] for row in table.rows if row[1] == "gaussian_prefix_bound"]

    lg = n.bit_length() - 1
    rows = substream(9, n).standard_normal((gaussians, n))
    best = (np.cumsum(rows, axis=1) ** 2).max(axis=1)
    one_shot = bool((quadratic_form_rows(n, rows) >= best / lg - 1e-9).all())
    assert verdict == str(one_shot)
    assert len(seen) == -(-gaussians // tile_rows(n))
    assert np.concatenate(seen).tobytes() == rows.tobytes()


def test_dense_matrix_refuses_large_n():
    check_dense_size(DENSE_MATRIX_LIMIT)
    with pytest.raises(ResourceLimitError, match="n=8192 needs about 0.5 GiB"):
        dense_matrix(8192)


def test_corollary_ratio_bounds():
    assert 0 < corollary_ratio(8, prefix_quadratic_minima(8)) <= 8 * 9
    assert corollary_ratio(4, prefix_quadratic_minima(4)) <= 16 + 1e-9
    for n in (8, 64, 256):
        lg = n.bit_length() - 1
        ratio = corollary_ratio(n, prefix_quadratic_minima(n))
        normalized = ratio / (n * lg * lg)
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
