"""Sparse linear solves with equilibration and factorization reuse.

The coupled system mixes metal conductances (~1e8 S/m), dielectric
admittances (~1e-2 S/m at 1 GHz) and carrier-flux coefficients scaled by
densities of 1e21 m^-3, so the raw matrix spans ~30 orders of magnitude.
Row/column max-equilibration before the LU keeps SuperLU's pivoting
healthy; the scaling is undone on the solution so callers never see it.

Two entry points:

* :class:`SparseFactor` — factorize once, solve many right-hand sides
  (``(n,)`` or ``(n, k)`` multi-RHS).  This is the reuse substrate for
  multi-port / multi-excitation solves where the matrix is fixed and
  only the Dirichlet data changes.
* :func:`solve_sparse` — the one-shot convenience wrapper (factorize,
  solve, discard), kept for callers with a single right-hand side.

Every factorization first pins the process's OpenBLAS copies to one
thread (:func:`pin_blas_single_thread`) and leaves them there: a
threaded BLAS changes the roundoff of the factorization with the
thread count the process starts with, so the same cache key would
build different bytes.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SingularSystemError
from repro.obs.metrics import counter
from repro.obs.trace import span

#: Execution-only observability: factorizations and triangular solves
#: performed by this process (reuse shows up as solves >> factorizations).
_FACTORIZATIONS = counter(
    "repro_solver_factorizations_total",
    "Sparse LU factorizations performed (SparseFactor constructions)")
_SOLVES = counter(
    "repro_solver_solves_total",
    "Triangular back-substitutions through an existing factorization")


@functools.lru_cache(maxsize=None)
def _openblas_thread_apis() -> tuple:
    """``(get, set)`` thread-count functions of every OpenBLAS copy.

    scipy wheels bundle their own OpenBLAS (LP64, symbols prefixed
    ``scipy_``), separate from numpy's ILP64 copy whose symbols also
    carry a ``64_`` suffix; a system build links a plain
    ``libopenblas``.  The libraries are looked up among the objects
    this process has mapped and in the wheels' bundled-library
    directories.  Empty when no OpenBLAS thread API is found (another
    BLAS, or a static build).
    """
    paths = []
    try:
        with open("/proc/self/maps") as handle:
            paths = [line.split(None, 5)[-1].strip() for line in handle
                     if "openblas" in line]
    except OSError:
        pass
    for package in (np, scipy):
        root = os.path.dirname(package.__file__)
        for libdir in (root + ".libs", os.path.join(root, ".dylibs")):
            paths += sorted(glob.glob(os.path.join(libdir, "*openblas*")))
    apis = []
    for path in dict.fromkeys(paths):
        try:
            api = _thread_api(ctypes.CDLL(path))
        except OSError:
            continue
        if api is not None:
            apis.append(api)
    return tuple(apis)


def _thread_api(library):
    """``(get, set)`` of one OpenBLAS library, or ``None``."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("", "64_"):
            getter = getattr(library, f"{prefix}_get_num_threads{suffix}",
                             None)
            setter = getattr(library, f"{prefix}_set_num_threads{suffix}",
                             None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def pin_blas_single_thread() -> None:
    """Pin every OpenBLAS copy to one thread for the rest of the process.

    Never restored.  scipy's copy runs SuperLU and the Krylov vector
    kernels; numpy's runs the dense algebra of a build and the
    surrogate evaluation of later queries.  At these sizes a second
    thread buys little, and an idle OpenBLAS worker spins: on a small
    host it can share the main thread's core and halve it.  Checked on
    every factorization, so a caller that raises a count again cannot
    change the next LU's bits.  A no-op where no OpenBLAS thread API
    exists.  Execution-only: it changes how a solve runs, never what
    it is.
    """
    for getter, setter in _openblas_thread_apis():
        if getter() != 1:
            setter(1)


def _max_abs_rows(matrix: sp.csr_matrix) -> np.ndarray:
    """Max |entry| per row of a CSR matrix (dense-free)."""
    absmat = abs(matrix)
    out = np.zeros(matrix.shape[0])
    # CSR: reduce over each row's data slice.
    indptr = absmat.indptr
    data = absmat.data
    for_rows = np.flatnonzero(np.diff(indptr))
    out[for_rows] = np.maximum.reduceat(data, indptr[for_rows])
    return out


class SparseFactor:
    """Reusable equilibrated sparse LU factorization of a square matrix.

    Factorizes once in ``__init__`` (row/column max-equilibration plus a
    SuperLU decomposition) and answers any number of :meth:`solve` calls
    against the same matrix — the expensive part of a multi-port or
    multi-excitation study is thereby paid once per matrix instead of
    once per right-hand side.

    Parameters
    ----------
    matrix:
        Square sparse matrix (real or complex).
    equilibrate:
        Apply row & column max-scaling before factorizing (default on).

    Raises
    ------
    SingularSystemError
        When the matrix is non-square, has empty rows, or the
        factorization fails — typically a destroyed mesh sample or a
        missing boundary condition.
    """

    def __init__(self, matrix: sp.spmatrix, equilibrate: bool = True):
        matrix = matrix.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise SingularSystemError(
                f"matrix must be square, got {matrix.shape}")
        self.shape = matrix.shape
        self.dtype = matrix.dtype
        n = matrix.shape[0]
        if n == 0:
            self._lu = None
            self._row_scale = None
            self._col_scale = None
            return

        with span("factorize", n=n):
            if equilibrate:
                row_max = _max_abs_rows(matrix)
                if np.any(row_max == 0.0):
                    empty = int(np.count_nonzero(row_max == 0.0))
                    raise SingularSystemError(
                        f"{empty} empty matrix rows: some unknowns have "
                        f"no equation (check boundary conditions)")
                row_scale = 1.0 / row_max
                scaled = sp.diags(row_scale) @ matrix
                col_max = _max_abs_rows(scaled.T.tocsr())
                col_max[col_max == 0.0] = 1.0
                col_scale = 1.0 / col_max
                scaled = (scaled @ sp.diags(col_scale)).tocsc()
            else:
                scaled = matrix.tocsc()
                row_scale = None
                col_scale = None
            self._row_scale = row_scale
            self._col_scale = col_scale

            pin_blas_single_thread()
            try:
                self._lu = spla.splu(scaled)
            except RuntimeError as exc:
                raise SingularSystemError(
                    f"sparse LU failed: {exc}") from exc
        _FACTORIZATIONS.inc()

    # ------------------------------------------------------------------
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against one or many right-hand sides.

        Parameters
        ----------
        rhs:
            Shape ``(n,)`` for a single right-hand side or ``(n, k)``
            for ``k`` of them solved in one multi-RHS pass; the result
            has the same shape.  A complex ``rhs`` against a real
            factorization is handled by solving the real and imaginary
            parts separately (the factorization is not redone).

        Raises
        ------
        SingularSystemError
            On a shape mismatch or a non-finite solution (the
            factorization was numerically singular).
        """
        rhs = np.asarray(rhs)
        n = self.shape[0]
        if rhs.shape[0] != n:
            raise SingularSystemError(
                f"rhs length {rhs.shape[0]} does not match matrix "
                f"size {n}")
        if n == 0:
            return np.zeros(rhs.shape,
                            dtype=np.result_type(self.dtype, rhs.dtype))

        if (np.iscomplexobj(rhs)
                and not np.issubdtype(self.dtype, np.complexfloating)):
            # SuperLU cannot mix a real factorization with a complex
            # RHS; solve the parts separately through the same LU.
            return (self.solve(np.ascontiguousarray(rhs.real))
                    + 1j * self.solve(np.ascontiguousarray(rhs.imag)))

        num_rhs = 1 if rhs.ndim == 1 else int(rhs.shape[1])
        with span("back_substitute", n=n, num_rhs=num_rhs):
            if self._row_scale is not None:
                scale = (self._row_scale if rhs.ndim == 1
                         else self._row_scale[:, None])
                scaled_rhs = scale * rhs
            else:
                scaled_rhs = rhs
            y = self._lu.solve(np.asarray(scaled_rhs))
            if not np.all(np.isfinite(y)):
                raise SingularSystemError(
                    "solution contains non-finite values")
            _SOLVES.inc()
            if self._col_scale is not None:
                scale = (self._col_scale if y.ndim == 1
                         else self._col_scale[:, None])
                return scale * y
            return y


def solve_sparse(matrix: sp.spmatrix, rhs: np.ndarray,
                 equilibrate: bool = True) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` via equilibrated sparse LU.

    Thin one-shot wrapper over :class:`SparseFactor`; callers that solve
    the same matrix repeatedly should hold a :class:`SparseFactor`
    instead so the factorization is reused.

    Parameters
    ----------
    matrix:
        Square sparse matrix (real or complex).
    rhs:
        Right-hand side, shape ``(n,)`` or ``(n, k)``.
    equilibrate:
        Apply row & column max-scaling before factorizing (default on).

    Raises
    ------
    SingularSystemError
        When the factorization fails or produces non-finite values —
        typically a destroyed mesh sample or missing boundary condition.
    """
    matrix = matrix.tocsr()
    rhs = np.asarray(rhs)
    if np.iscomplexobj(rhs) and not np.iscomplexobj(matrix.data):
        # Factor in complex arithmetic up front: the one-shot path knows
        # its RHS, so this beats two real solves.
        matrix = matrix.astype(complex)
    return SparseFactor(matrix, equilibrate=equilibrate).solve(rhs)
