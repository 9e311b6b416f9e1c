"""banachscale.csr against scipy.sparse: every array bit for bit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from banachscale import cli, kimura
from banachscale.csr import Csr, vstack

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def assert_same(got, want):
    """A Csr and a scipy CSR matrix with equal arrays, dtypes and shape."""
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@st.composite
def coo_pairs(draw, shape=None):
    """The same matrix as a Csr and as a scipy csr_matrix after eliminate_zeros(),
    from coordinates with duplicates, explicit zeros and entries that cancel."""
    n_rows, n_cols = shape or (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    nnz = draw(st.integers(0, 3 * n_rows * n_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    # small integers make duplicates and products cancel; full mantissas make
    # the order of every sum show in the last bit
    if draw(st.booleans()):
        data = rng.integers(-2, 3, nnz).astype(float)
    else:
        data = rng.standard_normal(nnz) * 10.0 ** rng.integers(-3, 4, nnz)
    want = sparse.csr_matrix((data, (rows, cols)), shape=(n_rows, n_cols), dtype=float)
    want.eliminate_zeros()
    return Csr.from_coo(data, rows, cols, (n_rows, n_cols)), want


class TestAgainstScipy:
    @settings(max_examples=80, deadline=None)
    @given(coo_pairs())
    def test_construction(self, pair):
        assert_same(*pair)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(coo_pairs(shape=(3, 5)), min_size=1, max_size=4), st.integers(0, 2))
    def test_vstack_and_row_slices(self, pairs, start):
        got = vstack([c for c, _ in pairs])
        want = sparse.vstack([s for _, s in pairs], format="csr")
        assert_same(got, want)
        stop = got.shape[0] - start // 2
        assert_same(got.rows(start, stop), want[start:stop])
        assert_same(got.rows(start, start + 1), want[start])

    @settings(max_examples=60, deadline=None)
    @given(coo_pairs(), st.floats(-1e3, 1e3), st.integers(1, 63))
    def test_scalar_product_and_division(self, pair, c, k):
        got, want = pair
        assert_same(got * c, want * c)
        assert_same(c * got, c * want)
        assert_same(np.float64(c) * got, np.float64(c) * want)
        assert_same(got / k, want / k)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sum_and_product(self, data):
        n, k, m = (data.draw(st.integers(1, 8)) for _ in range(3))
        a, a_s = data.draw(coo_pairs(shape=(n, k)))
        b, b_s = data.draw(coo_pairs(shape=(n, k)))
        c, c_s = data.draw(coo_pairs(shape=(k, m)))
        assert_same(a + b, a_s + b_s)
        product, product_s = a @ c, a_s @ c_s
        assert_same(product, product_s)
        # a product's rows are unsorted: the sum takes the kernel's other path
        assert_same(product + product, product_s + product_s)
        assert_same((a + b) @ c, (a_s + b_s) @ c_s)

    def test_mismatched_shapes_raise(self):
        a = Csr.from_coo([1.0], [0], [0], (2, 3))
        with pytest.raises(ValueError, match="cannot add"):
            a + Csr.from_coo([1.0], [0], [0], (3, 2))
        with pytest.raises(ValueError, match="cannot multiply"):
            a @ a
        with pytest.raises(ValueError, match="different widths"):
            vstack([a, Csr.from_coo([1.0], [0], [0], (2, 2))])
        with pytest.raises(TypeError):
            a @ np.ones(3)


def desk_arrays() -> dict[str, np.ndarray]:
    """Every CSR array the library forms for desk-epistatic, and two products
    and a propagation with them."""
    cfg = json.loads((TESTS.parent / "configs" / "desk-epistatic.json").read_text())
    model = cli.parse_model(cfg, cli.parse_window(cfg))
    a0 = model.a0_matrix(0.0)
    mats = {
        **{f"component{i}": mat for i, mat in enumerate(kimura._assemble_components(model))},
        "a0": model._a0, "b": model._b, "a0_matrix": a0,
        # no squaring, and five
        "increment": kimura.expm_increment(a0, 0.01),
        "squared": kimura.expm_increment(a0, 20.0 / kimura._norm1(a0)),
    }
    out = {f"{key}.{name}": getattr(mat, name)
           for key, mat in mats.items() for name in ("data", "indices", "indptr")}
    V = np.random.default_rng(3).uniform(-1.0, 1.0, (4, model.dim))
    out["product"] = kimura._csr_product(mats["squared"], V.T)
    out["propagated"] = kimura.evolution_u(model, np.array([0.1, 0.2, 0.3, 0.4]), 0.0, V)
    return out


def test_fallback_import_gives_the_same_arrays(tmp_path):
    # a fresh interpreter whose path load of the kernels fails imports
    # scipy.sparse's own and forms the same arrays
    out = tmp_path / "fallback.npz"
    code = "\n".join([
        "import importlib.util, sys",
        "def refuse(*args, **kwargs):",
        "    raise ImportError('path load refused')",
        "importlib.util.spec_from_file_location = refuse",
        "import banachscale.csr",
        "assert 'scipy.sparse' in sys.modules, 'the fallback did not import scipy.sparse'",
        f"sys.path.insert(0, {str(TESTS)!r})",
        "import numpy as np",
        "from test_csr import desk_arrays",
        f"np.savez({str(out)!r}, **desk_arrays())",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    want = desk_arrays()
    with np.load(out) as got:
        assert sorted(got.files) == sorted(want)
        for key, value in want.items():
            assert got[key].dtype == value.dtype and np.array_equal(got[key], value), key
