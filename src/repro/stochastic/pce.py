"""Polynomial-chaos expansions — the paper's statistical model, grown.

The SSCM produces coefficients ``x_alpha`` of the expansion (paper
eq. 4); the mean is the zeroth coefficient and the variance is
``sum x_alpha^2 <He_alpha^2>`` (paper eq. 5).  A fitted
:class:`PolynomialChaos` is also a cheap surrogate: it can be evaluated
and Monte-Carlo-sampled at negligible cost, which the ablation benches
use.

The paper's model is the order-2 total-degree chaos
(:class:`QuadraticPCE`, kept as an exported alias for external
callers); the class itself carries *any*
:class:`~repro.stochastic.hermite.HermiteBasis`, including the
explicit order-adaptive truncations the dimension-adaptive engine
derives from its accepted index set.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StochasticError
from repro.stochastic.hermite import HermiteBasis

#: Default number of sample rows evaluated per chunk.  At the paper's
#: d = 34 the quadratic basis has 630 columns, so one chunk's design
#: matrix stays under ~85 MB of float64; million-row evaluations never
#: materialize the full ``(m, basis.size)`` matrix.
DEFAULT_CHUNK_SIZE = 16384


class PolynomialChaos:
    """Hermite PC expansion of a vector-valued quantity of interest.

    Parameters
    ----------
    basis:
        The multivariate Hermite basis — total-degree (any order) or
        an explicit anisotropic index set.
    coefficients:
        ``(basis.size, output_dim)`` array of expansion coefficients.
    output_names:
        Optional names of the QoI components (table row labels).
    """

    def __init__(self, basis: HermiteBasis, coefficients: np.ndarray,
                 output_names=None):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.ndim == 1:
            coefficients = coefficients[:, None]
        if coefficients.shape[0] != basis.size:
            raise StochasticError(
                f"coefficients must have {basis.size} rows, "
                f"got {coefficients.shape}")
        self.basis = basis
        self.coefficients = coefficients
        if output_names is not None:
            output_names = list(output_names)
            if len(output_names) != coefficients.shape[1]:
                raise StochasticError(
                    "output_names length must match output dimension")
        self.output_names = output_names

    # ------------------------------------------------------------------
    @classmethod
    def fit_quadrature(cls, basis: HermiteBasis, points: np.ndarray,
                       weights: np.ndarray, values: np.ndarray,
                       output_names=None) -> "PolynomialChaos":
        """Spectral projection: ``x_a = sum_k w_k f(z_k) He_a(z_k) / <He_a^2>``."""
        points = np.asarray(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if points.shape[0] != weights.size or values.shape[0] != weights.size:
            raise StochasticError(
                "points, weights and values must agree in length")
        design = basis.evaluate(points)
        raw = design.T @ (weights[:, None] * values)
        coefficients = raw / basis.norms_squared[:, None]
        return cls(basis, coefficients, output_names=output_names)

    @classmethod
    def fit_regression(cls, basis: HermiteBasis, points: np.ndarray,
                       values: np.ndarray,
                       output_names=None) -> "PolynomialChaos":
        """Least-squares fit (robust alternative when weights are noisy)."""
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        design = basis.evaluate(points)
        if design.shape[0] < design.shape[1]:
            raise StochasticError(
                f"{design.shape[0]} samples cannot determine "
                f"{design.shape[1]} coefficients")
        coefficients, *_ = np.linalg.lstsq(design, values, rcond=None)
        return cls(basis, coefficients, output_names=output_names)

    # ------------------------------------------------------------------
    @property
    def output_dim(self) -> int:
        return self.coefficients.shape[1]

    @property
    def mean(self) -> np.ndarray:
        """Paper eq. (5): the zeroth coefficient."""
        return self.coefficients[0].copy()

    @property
    def variance(self) -> np.ndarray:
        """Paper eq. (5): ``sum_a>0 x_a^2 <He_a^2>``."""
        higher = self.coefficients[1:]
        norms = self.basis.norms_squared[1:, None]
        return (higher * higher * norms).sum(axis=0)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def evaluate(self, zeta: np.ndarray,
                 chunk_size: int = None) -> np.ndarray:
        """Evaluate the surrogate at standard-normal points.

        ``zeta`` of shape ``(dim,)`` or ``(m, dim)``; returns
        ``(output_dim,)`` or ``(m, output_dim)``.  With ``chunk_size``
        set, rows are evaluated in blocks so the ``(m, basis.size)``
        design matrix is never materialized at once (identical values,
        bounded memory).
        """
        zeta = np.asarray(zeta, dtype=float)
        single = zeta.ndim == 1
        if not single and chunk_size is not None \
                and zeta.shape[0] > chunk_size:
            if chunk_size < 1:
                raise StochasticError(
                    f"chunk_size must be >= 1, got {chunk_size}")
            out = np.empty((zeta.shape[0], self.output_dim))
            for start in range(0, zeta.shape[0], chunk_size):
                block = zeta[start:start + chunk_size]
                out[start:start + chunk_size] = \
                    self.basis.evaluate(block) @ self.coefficients
            return out
        design = self.basis.evaluate(zeta)
        out = design @ self.coefficients
        return out[0] if single else out

    def sample_chunks(self, rng: np.random.Generator, num_samples: int,
                      chunk_size: int = DEFAULT_CHUNK_SIZE):
        """Yield ``(start, (count, output_dim))`` evaluated sample blocks.

        The one chunked-sampling loop everything streams through:
        draws standard normals and evaluates block by block, so neither
        the design matrix nor the sample matrix is ever materialized.
        Chunked draws from a :class:`numpy.random.Generator` fill the
        same stream as one big draw, so concatenated blocks are
        independent of ``chunk_size``.
        """
        if num_samples < 1:
            raise StochasticError(
                f"num_samples must be >= 1, got {num_samples}")
        if chunk_size < 1:
            raise StochasticError(
                f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, num_samples, chunk_size):
            count = min(chunk_size, num_samples - start)
            zeta = rng.standard_normal((count, self.basis.dim))
            yield start, self.evaluate(zeta)

    def sample_values(self, rng: np.random.Generator, num_samples: int,
                      chunk_size: int = DEFAULT_CHUNK_SIZE) -> np.ndarray:
        """Draw ``(num_samples, output_dim)`` surrogate samples.

        Chunked via :meth:`sample_chunks`: only the ``output_dim``-wide
        result is held in full, never the design matrix.
        """
        out = np.empty((num_samples, self.output_dim))
        for start, values in self.sample_chunks(rng, num_samples,
                                                chunk_size):
            out[start:start + values.shape[0]] = values
        return out

    def sample_statistics(self, rng: np.random.Generator,
                          num_samples: int = 100000,
                          chunk_size: int = DEFAULT_CHUNK_SIZE):
        """Surrogate Monte Carlo: (mean, std) from cheap samples.

        Streams through :meth:`sample_chunks`, accumulating first and
        second moments *about the expansion's exact mean* (so the
        one-pass variance does not cancel catastrophically when
        ``std << |mean|``); arbitrarily large ``num_samples`` use
        memory bounded by ``chunk_size`` rows.
        """
        if num_samples < 2:
            raise StochasticError(
                f"num_samples must be >= 2, got {num_samples}")
        pivot = self.mean
        total = np.zeros(self.output_dim)
        total_sq = np.zeros(self.output_dim)
        for _, values in self.sample_chunks(rng, num_samples,
                                            chunk_size):
            deviations = values - pivot
            total += deviations.sum(axis=0)
            total_sq += (deviations * deviations).sum(axis=0)
        shift = total / num_samples
        variance = (total_sq - num_samples * shift * shift) \
            / (num_samples - 1)
        return pivot + shift, np.sqrt(np.clip(variance, 0.0, None))

    def output_labels(self) -> list:
        """Output names, or positional ``qoi_k`` placeholders."""
        if self.output_names is None:
            return [f"qoi_{k}" for k in range(self.output_dim)]
        return list(self.output_names)

    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """Serializable form: plain arrays + scalars (npz-friendly).

        Inverse of :meth:`from_arrays`.  A total-degree basis is
        reconstructed from ``(dim, order)`` alone — the exact layout
        every pre-existing stored surrogate uses — while an explicit
        (order-adaptive) basis additionally carries its multi-index
        set as a ``(size, dim)`` integer array.
        """
        arrays = {
            "dim": np.int64(self.basis.dim),
            "order": np.int64(self.basis.order),
            "coefficients": self.coefficients,
        }
        if self.basis.truncation != "total":
            arrays["basis_indices"] = np.asarray(self.basis.indices,
                                                 dtype=np.int64)
        if self.output_names is not None:
            arrays["output_names"] = np.asarray(self.output_names,
                                                dtype=np.str_)
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict) -> "PolynomialChaos":
        """Rebuild a PCE from :meth:`to_arrays` output.

        Entries without ``basis_indices`` (every surrogate stored
        before order-adaptive bases existed) load exactly as before:
        a total-degree basis of the stored ``(dim, order)``.
        """
        try:
            dim = int(arrays["dim"])
            if "basis_indices" in arrays:
                index_rows = np.asarray(arrays["basis_indices"])
                basis = HermiteBasis(
                    dim, indices=[tuple(int(a) for a in row)
                                  for row in index_rows])
            else:
                basis = HermiteBasis(dim, order=int(arrays["order"]))
            coefficients = np.asarray(arrays["coefficients"], dtype=float)
        except KeyError as exc:
            raise StochasticError(
                f"serialized PCE is missing field {exc}") from exc
        names = arrays.get("output_names")
        if names is not None:
            names = [str(name) for name in np.asarray(names)]
        return cls(basis, coefficients, output_names=names)


#: The paper's order-2 chaos by its historical name, still exported
#: from :mod:`repro.stochastic` for external callers (the package
#: itself uses :class:`PolynomialChaos`); it *is* that class, which
#: defaults to the order-2 total-degree basis.
QuadraticPCE = PolynomialChaos
