"""banachscale.csr against scipy.sparse: every array bit for bit."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from banachscale import cli, kimura
from banachscale.csr import Csr, vstack

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def as_scipy(mat):
    """A library :class:`~banachscale.csr.Csr` as a scipy CSR matrix on copies
    of its arrays (scipy's operators may sort a matrix's indices in place), for
    a comparison with scipy's own operators."""
    arrays = (mat.data.copy(), mat.indices.copy(), mat.indptr.copy())
    return sparse.csr_matrix(arrays, shape=mat.shape)


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
        # scipy's division by k is the product with 1 / k
        assert_same(got * (1 / k), want / k)

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


@st.composite
def csr_operands(draw):
    """A float CSR matrix with empty rows and unsorted columns allowed, and a
    dense block of full-mantissa values for it."""
    n_rows, n_cols = draw(st.integers(1, 20)), draw(st.integers(1, 12))
    row_cols = [
        draw(st.lists(st.integers(0, n_cols - 1), unique=True, max_size=n_cols))
        for _ in range(n_rows)
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indptr = np.cumsum([0] + [len(c) for c in row_cols])
    indices = np.array([j for cols in row_cols for j in cols], dtype=np.intp)
    data = rng.standard_normal(len(indices)) * 10.0 ** rng.integers(-3, 4, len(indices))
    mat = sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
    if draw(st.booleans()):
        mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
    block = rng.standard_normal((n_cols, draw(st.integers(2, 70))))
    return mat, block


def empty_rows_int64():
    mat = sparse.csr_matrix(np.array([[0.0, 0.0], [1.5, -2.0], [0.0, 0.0]]))
    mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
    return mat, np.array([[1.0, 2.0, 3.0], [0.5, 0.25, -1.0]])


def of_scipy(mat) -> Csr:
    """A Csr on a scipy CSR matrix's own arrays."""
    return Csr(mat.data, mat.indices, mat.indptr, mat.shape)


class TestCsrProduct:
    """Csr.dot is scipy's ``mat @ X`` bit for bit."""

    @given(csr_operands())
    @example(empty_rows_int64())
    @settings(max_examples=60, deadline=None)
    def test_equals_scipy_on_every_operand_shape(self, operands):
        mat, block = operands
        operands = {
            "vector": np.ascontiguousarray(block[:, 0]),
            "block": block,
            "transposed view": np.ascontiguousarray(block.T).T,
            "one column": block[:, :1],
            "strided vector": block[:, 1],
        }
        for name, X in operands.items():
            got, want = of_scipy(mat).dot(X), mat @ X
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 2, 2), ()])
    def test_a_mismatched_operand_raises(self, shape):
        # the kernel itself would read past the operand's end
        with pytest.raises(ValueError, match="cannot multiply"):
            of_scipy(sparse.csr_matrix(np.eye(2))).dot(np.ones(shape))


class TestColumnSumNorm:
    @pytest.mark.parametrize("name", ["desk-epistatic", "desk-free", "desk-smooth"])
    def test_column_sum_norm_is_scipys_bit_for_bit(self, shipped_configs, name, monkeypatch):
        # on the components and on every Taylor term and partial sum of expm_increment
        cfg = shipped_configs[name]
        model = cli.parse_model(cfg, cli.parse_window(cfg))
        norm1, seen = Csr.norm1, []

        def recorded(mat):
            seen.append(mat)
            return norm1(mat)

        monkeypatch.setattr(Csr, "norm1", recorded)
        for h in (1e-3, 0.3, 5.0):
            kimura.expm_increment(model.a0_matrix(0.0), h)
        assert len(seen) > 20
        for mat in [*kimura._assemble_components(model), *seen]:
            assert norm1(mat) == float(abs(as_scipy(mat)).sum(axis=0).max())


def test_only_csr_calls_the_kernels():
    # no other module of the library names scipy's _sparsetools, by import or attribute
    for path in sorted((SRC / "banachscale").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        named = sorted(name for name in names if "sparsetools" in name)
        assert (named != []) == (path.name == "csr.py"), (path.name, named)


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
        "squared": kimura.expm_increment(a0, 20.0 / a0.norm1()),
    }
    out = {f"{key}.{name}": getattr(mat, name)
           for key, mat in mats.items() for name in ("data", "indices", "indptr")}
    V = np.random.default_rng(3).uniform(-1.0, 1.0, (4, model.dim))
    out["product"] = mats["squared"].dot(V.T)
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
