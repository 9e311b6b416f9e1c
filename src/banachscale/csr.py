"""Compressed sparse row matrices on scipy's compiled kernels, without ``scipy.sparse``.

Importing ``scipy.sparse`` costs more start-up time and memory than the rest of
the library, which needs only the compiled kernels of its private extension
``_sparsetools``.  :data:`sparsetools` is that extension, loaded from its file
in scipy's package directory, or by ``from scipy.sparse import _sparsetools``
where that load fails.  :class:`Csr`, the only caller of its kernels, holds a
float matrix as the arrays ``data``, ``indices`` and ``indptr`` of scipy's CSR
format and makes the kernel calls of the ``scipy.sparse`` methods it stands
for, in their order, so every array it forms equals scipy's bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import partial
from itertools import accumulate

import numpy as np


def _load():
    """scipy's ``_sparsetools`` extension from its file, else by scipy.sparse's own import."""
    try:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(scipy_dir, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location("scipy.sparse._sparsetools", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                # the extension enters itself in sys.modules, without its package:
                # a later import of scipy.sparse must load the package's own
                sys.modules.pop(spec.name, None)
                return module
    except (AttributeError, ImportError, OSError):
        pass
    from scipy.sparse import _sparsetools

    return _sparsetools


sparsetools = _load()

_INT32_MAX = 2**31 - 1


def _index_dtype(maxval: int, *arrays: np.ndarray) -> type:
    """scipy's choice of index type: int32, unless ``maxval`` or an int64 array needs int64."""
    if maxval > _INT32_MAX or any(a.dtype == np.int64 for a in arrays):
        return np.int64
    return np.int32


def _pruned(a: np.ndarray, n: int) -> np.ndarray:
    """The first n entries, copied when they are a small part of a larger array (scipy's prune)."""
    a = a[:n]
    return a.copy() if a.base is not None and a.size < a.base.size // 2 else a


class Csr:
    """A float matrix as scipy's CSR format stores it: row i holds the entries
    ``data[indptr[i]:indptr[i + 1]]`` in the columns ``indices[...]``.

    Only what the hierarchy's operators need: construction from coordinates, row
    slices, :func:`vstack`, scalar ``*``, ``+`` and ``@`` of two matrices, the
    product with a dense operand (:meth:`dot`) and the 1-norm (:meth:`norm1`).
    """

    __slots__ = ("data", "indices", "indptr", "shape")
    # numpy defers to the reflected operators, as for a scipy matrix
    __array_ufunc__ = None

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple[int, int]):
        nnz = int(indptr[-1])
        self.data, self.indices = _pruned(data, nnz), _pruned(indices, nnz)
        self.indptr, self.shape = indptr, shape

    @classmethod
    def from_coo(cls, data, rows, cols, shape: tuple[int, int]) -> "Csr":
        """Entry ``data[k]`` at ``(rows[k], cols[k])``, duplicates summed and zeros
        dropped: ``csr_matrix((data, (rows, cols)), shape)``, then ``eliminate_zeros()``."""
        M, N = shape
        nnz = len(data)
        idx = _index_dtype(max(M, N, nnz))
        indptr, indices, out = np.empty(M + 1, dtype=idx), np.empty(nnz, dtype=idx), np.empty(nnz)
        sparsetools.coo_tocsr(
            M, N, nnz, np.asarray(rows, dtype=idx), np.asarray(cols, dtype=idx),
            np.asarray(data, dtype=float), indptr, indices, out,
        )
        if not sparsetools.csr_has_canonical_format(M, indptr, indices):
            if not sparsetools.csr_has_sorted_indices(M, indptr, indices):
                sparsetools.csr_sort_indices(M, indptr, indices, out)
            sparsetools.csr_sum_duplicates(M, N, indptr, indices, out)
        sparsetools.csr_eliminate_zeros(M, N, indptr, indices, out)
        return cls(out, indices, indptr, shape)

    def rows(self, start: int, stop: int) -> "Csr":
        """Rows start..stop - 1, by ``get_csr_submatrix``: scipy's ``mat[start:stop]``."""
        M, N = self.shape
        indptr, indices, data = sparsetools.get_csr_submatrix(
            M, N, self.indptr, self.indices, self.data, start, stop, 0, N
        )
        return Csr(data, indices, indptr, (stop - start, N))

    def __mul__(self, c: float) -> "Csr":
        """Every entry times the scalar c, as scipy's scalar product."""
        if not isinstance(c, (int, float)):
            return NotImplemented
        return Csr(self.data * c, self.indices, self.indptr, self.shape)

    __rmul__ = __mul__

    def __add__(self, other: "Csr") -> "Csr":
        """The sum by ``csr_plus_csr``, which drops entries that cancel."""
        if not isinstance(other, Csr):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"cannot add a {other.shape} matrix to a {self.shape} matrix")
        nnz = len(self.data) + len(other.data)
        return self._combine(sparsetools.csr_plus_csr, other, nnz, self.shape)

    def __matmul__(self, other: "Csr") -> "Csr":
        """The product by ``csr_matmat``, which drops entries that cancel; its
        rows keep the kernel's column order, unsorted, as scipy's do."""
        if not isinstance(other, Csr):
            return NotImplemented
        (M, K), (K2, N) = self.shape, other.shape
        if K != K2:
            raise ValueError(f"cannot multiply a {self.shape} matrix by a {other.shape} matrix")
        arrays = (self.indptr, self.indices, other.indptr, other.indices)
        idx = _index_dtype(0, *arrays)
        nnz = sparsetools.csr_matmat_maxnnz(M, N, *(np.asarray(a, dtype=idx) for a in arrays))
        return self._combine(sparsetools.csr_matmat, other, nnz, (M, N))

    def dot(self, X: np.ndarray) -> np.ndarray:
        """self @ X for a dense vector or block, by the kernel that scipy's ``@`` calls
        on a C-contiguous X and a zeroed output, without the dispatch before it,
        which costs more than the product at the hierarchy's desk sizes."""
        M, N = self.shape
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim not in (1, 2) or X.shape[0] != N:
            raise ValueError(f"cannot multiply a {M}x{N} matrix by an array of shape {X.shape}")
        out = np.zeros(M if X.ndim == 1 else (M, X.shape[1]))
        if X.ndim == 1 or X.shape[1] == 1:
            sparsetools.csr_matvec(M, N, self.indptr, self.indices, self.data, X, out)
        else:
            sparsetools.csr_matvecs(M, N, X.shape[1], self.indptr, self.indices, self.data, X, out)
        return out

    def kernel(self, columns: int):
        """The kernel of :meth:`dot` for ``columns`` columns, bound to this matrix:
        ``kernel(X, out)`` adds self @ X to ``out``, both C-contiguous, unchecked."""
        M, N = self.shape
        if columns == 1:
            return partial(sparsetools.csr_matvec, M, N, self.indptr, self.indices, self.data)
        return partial(sparsetools.csr_matvecs, M, N, columns, self.indptr, self.indices, self.data)

    def norm1(self) -> float:
        """Largest column sum of |self|: np.bincount adds each column's entries in
        storage order, as scipy's ``abs(mat).sum(axis=0)`` does, without a new matrix."""
        return float(np.bincount(self.indices, np.abs(self.data), self.shape[1]).max())

    def _combine(self, kernel, other: "Csr", nnz: int, shape: tuple[int, int]) -> "Csr":
        """The matrix that ``kernel`` (``csr_plus_csr`` or ``csr_matmat``) forms
        from the two, into arrays of room for ``nnz`` entries."""
        arrays = (self.indptr, self.indices, other.indptr, other.indices)
        idx = _index_dtype(nnz, *arrays)
        a_ptr, a_ind, b_ptr, b_ind = (np.asarray(a, dtype=idx) for a in arrays)
        indptr, indices = np.empty(shape[0] + 1, dtype=idx), np.empty(nnz, dtype=idx)
        data = np.empty(nnz)
        kernel(*shape, a_ptr, a_ind, self.data, b_ptr, b_ind, other.data, indptr, indices, data)
        return Csr(data, indices, indptr, shape)


def vstack(blocks: list[Csr]) -> Csr:
    """The blocks one above the other: ``scipy.sparse.vstack(blocks, format="csr")``."""
    width = blocks[0].shape[1]
    if any(b.shape[1] != width for b in blocks):
        raise ValueError("cannot stack matrices of different widths")
    row = [0, *accumulate(b.shape[0] for b in blocks)]
    entry = [0, *accumulate(len(b.data) for b in blocks)]
    idx = _index_dtype(max(entry[-1], width), *(b.indptr for b in blocks))
    indptr = np.empty(row[-1] + 1, dtype=idx)
    indptr[-1] = entry[-1]
    for b, r, e in zip(blocks, row, entry):
        indptr[r : r + b.shape[0]] = b.indptr[:-1]
        indptr[r : r + b.shape[0]] += e
    indices = np.concatenate([b.indices for b in blocks]).astype(idx, copy=False)
    return Csr(np.concatenate([b.data for b in blocks]), indices, indptr, (row[-1], width))
