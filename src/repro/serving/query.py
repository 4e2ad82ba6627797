"""Vectorized statistical queries against a fitted surrogate.

Once a quadratic chaos is fitted, every statistic the paper reports —
and many it doesn't — is a NumPy-speed operation: mean and std are
closed-form in the coefficients, and distributional queries (quantiles,
yield against a spec limit) are surrogate Monte Carlo at millions of
samples per second.  Sampling is chunked so memory stays bounded by
``chunk_size`` rows regardless of the sample count, and yields are
accumulated streaming (no sample matrix at all).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServingError
from repro.stochastic.pce import DEFAULT_CHUNK_SIZE, PolynomialChaos


class QueryEngine:
    """Answer statistical queries on one surrogate.

    Parameters
    ----------
    surrogate:
        A :class:`~repro.stochastic.pce.PolynomialChaos` (any order,
        total-degree or order-adaptive) or a
        :class:`~repro.serving.store.SurrogateRecord` (whose PCE is
        used).
    num_samples:
        Default Monte-Carlo sample count for distributional queries.
    seed:
        Default sampling seed (fixed so repeated queries agree).
    chunk_size:
        Rows evaluated per chunk (memory bound).
    """

    def __init__(self, surrogate, num_samples: int = 1000000,
                 seed: int = 0, chunk_size: int = DEFAULT_CHUNK_SIZE):
        pce = getattr(surrogate, "pce", surrogate)
        if not isinstance(pce, PolynomialChaos):
            raise ServingError(
                f"QueryEngine needs a PolynomialChaos or "
                f"SurrogateRecord, got {type(surrogate).__name__}")
        if num_samples < 2:
            raise ServingError(
                f"num_samples must be >= 2, got {num_samples}")
        if chunk_size < 1:
            raise ServingError(
                f"chunk_size must be >= 1, got {chunk_size}")
        self.pce = pce
        self.num_samples = int(num_samples)
        self.seed = int(seed)
        self.chunk_size = int(chunk_size)
        # One-slot sample cache: a multi-query request re-uses the
        # (num_samples, seed) matrix instead of re-drawing it per query.
        self._cached_samples = None
        self._cached_for = None

    # ------------------------------------------------------------------
    @property
    def output_names(self) -> list:
        return self.pce.output_labels()

    def mean(self) -> np.ndarray:
        """Closed-form mean (paper eq. 5): the zeroth coefficient."""
        return self.pce.mean

    def std(self) -> np.ndarray:
        """Closed-form standard deviation (paper eq. 5)."""
        return self.pce.std

    def variance(self) -> np.ndarray:
        return self.pce.variance

    # ------------------------------------------------------------------
    def _num_samples(self, num_samples) -> int:
        """The one per-query sample-count rule: ``None`` means the
        engine default, anything else must be an integer (not a bool)
        of at least 2, the constructor's bound."""
        if num_samples is None:
            return self.num_samples
        if not isinstance(num_samples, (int, np.integer)) \
                or isinstance(num_samples, bool) or num_samples < 2:
            raise ServingError(
                f"malformed num_samples {num_samples!r}: need an "
                f"integer >= 2")
        return int(num_samples)

    def sample(self, num_samples: int = None,
               seed: int = None) -> np.ndarray:
        """Raw ``(m, output_dim)`` surrogate samples (chunked eval).

        The matrix is cached for the last ``(num_samples, seed)`` pair
        so successive queries over the same sample set (quantiles, then
        a yield, ...) evaluate the surrogate once.  Treat the returned
        array as read-only.
        """
        m = self._num_samples(num_samples)
        s = self.seed if seed is None else int(seed)
        if self._cached_for != (m, s):
            rng = np.random.default_rng(s)
            self._cached_samples = self.pce.sample_values(
                rng, m, chunk_size=self.chunk_size)
            self._cached_for = (m, s)
        return self._cached_samples

    def quantiles(self, q, num_samples: int = None,
                  seed: int = None) -> np.ndarray:
        """Monte-Carlo quantiles of every output.

        Parameters
        ----------
        q : array_like
            Quantile levels in ``[0, 1]``.
        num_samples, seed : int, optional
            Override the engine defaults for this call.

        Returns
        -------
        numpy.ndarray
            ``(len(q), output_dim)`` quantile values.
        """
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if q.size == 0 or np.any((q < 0.0) | (q > 1.0)):
            raise ServingError(
                f"quantile levels must lie in [0, 1], got {q}")
        samples = self.sample(num_samples=num_samples, seed=seed)
        return np.quantile(samples, q, axis=0)

    def yield_above(self, limit, num_samples: int = None,
                    seed: int = None) -> np.ndarray:
        """Fraction of samples with QoI strictly above ``limit``.

        Parameters
        ----------
        limit : float or array_like
            Spec limit — a scalar or one value per output.
        num_samples, seed : int, optional
            Override the engine defaults for this call.

        Returns
        -------
        numpy.ndarray
            ``(output_dim,)`` pass fractions in ``[0, 1]``.  Streaming:
            only per-chunk counts are kept in memory.
        """
        return self._yield(limit, above=True, num_samples=num_samples,
                           seed=seed)

    def yield_below(self, limit, num_samples: int = None,
                    seed: int = None) -> np.ndarray:
        """Fraction of samples with QoI at or below ``limit``.

        Mirror of :meth:`yield_above`; same parameters and shape.
        """
        return self._yield(limit, above=False, num_samples=num_samples,
                           seed=seed)

    def _yield(self, limit, above: bool, num_samples: int = None,
               seed: int = None) -> np.ndarray:
        limit = np.broadcast_to(
            np.asarray(limit, dtype=float), (self.pce.output_dim,))
        m = self._num_samples(num_samples)
        s = self.seed if seed is None else int(seed)
        if self._cached_for == (m, s):
            # Same stream as a fresh draw — reuse instead of redrawing.
            counts = (self._cached_samples > limit).sum(axis=0)
        else:
            rng = np.random.default_rng(s)
            counts = np.zeros(self.pce.output_dim, dtype=np.int64)
            for _, values in self.pce.sample_chunks(rng, m,
                                                    self.chunk_size):
                counts += (values > limit).sum(axis=0)
        if not above:
            counts = m - counts
        return counts / float(m)

    # ------------------------------------------------------------------
    def corner(self, sigma: float = 3.0) -> dict:
        """Deterministic worst-direction corner of the surrogate.

        For each output the linear coefficients define the steepest
        direction of the response surface; the full chaos (quadratic
        or order-adaptive — directions whose He_1 term is not in the
        basis contribute zero slope) is evaluated at
        ``zeta = +/- sigma`` along that (unit) direction.  Returns
        ``{"low": (k,), "high": (k,)}`` — the classic slow/fast-corner
        bracket, including the curvature the linearized corner would
        miss.
        """
        if sigma < 0.0:
            raise ServingError(f"sigma must be >= 0, got {sigma}")
        basis = self.pce.basis
        linear_rows = [i for i, index in enumerate(basis.indices)
                       if sum(index) == 1]
        # Row i of `gradients` = d(output)/d(zeta_axis) in axis order.
        axes = [int(np.argmax(basis.indices[i])) for i in linear_rows]
        gradients = np.zeros((basis.dim, self.pce.output_dim))
        gradients[axes] = self.pce.coefficients[linear_rows]
        norms = np.linalg.norm(gradients, axis=0)
        directions = np.divide(gradients, norms,
                               out=np.zeros_like(gradients),
                               where=norms > 0.0)
        # One +sigma and one -sigma point per output, evaluated batched.
        points = sigma * np.concatenate([directions.T, -directions.T])
        values = self.pce.evaluate(points)
        k = self.pce.output_dim
        per_output = np.stack([np.diag(values[:k]), np.diag(values[k:])])
        return {"low": per_output.min(axis=0),
                "high": per_output.max(axis=0)}

    # ------------------------------------------------------------------
    def answer(self, query: dict) -> dict:
        """Answer one JSON query dict (the request front-end format).

        ``{"kind": "mean"}``, ``{"kind": "std"}``,
        ``{"kind": "quantiles", "q": [...]}``,
        ``{"kind": "yield_above"|"yield_below", "limit": ...}``,
        ``{"kind": "corner", "sigma": 3.0}``,
        ``{"kind": "sample_statistics"}``.  Distributional kinds accept
        ``num_samples`` and ``seed`` overrides.

        Parameters
        ----------
        query : dict
            One query mapping with at least a ``kind``.

        Returns
        -------
        dict
            ``{"kind": ..., "values": ...}`` with JSON-ready lists in
            ``output_names`` order.
        """
        if not isinstance(query, dict) or "kind" not in query:
            raise ServingError(f"query must be a dict with a kind, "
                               f"got {query!r}")
        try:
            return self._dispatch(query)
        except (TypeError, ValueError) as exc:
            # Malformed JSON values (e.g. a string limit) must surface
            # as a per-request serving error, not a batch-killing crash.
            raise ServingError(
                f"malformed {query['kind']!r} query: {exc}") from exc

    def _dispatch(self, query: dict) -> dict:
        kind = query["kind"]
        num_samples = query.get("num_samples")
        seed = query.get("seed")
        if kind == "mean":
            values = self.mean().tolist()
        elif kind == "std":
            values = self.std().tolist()
        elif kind == "variance":
            values = self.variance().tolist()
        elif kind == "quantiles":
            if "q" not in query:
                raise ServingError("quantiles query needs q levels")
            values = self.quantiles(query["q"], num_samples=num_samples,
                                    seed=seed).tolist()
        elif kind in ("yield_above", "yield_below"):
            if "limit" not in query:
                raise ServingError(f"{kind} query needs a limit")
            fn = (self.yield_above if kind == "yield_above"
                  else self.yield_below)
            values = fn(query["limit"], num_samples=num_samples,
                        seed=seed).tolist()
        elif kind == "corner":
            corner = self.corner(float(query.get("sigma", 3.0)))
            values = {"low": corner["low"].tolist(),
                      "high": corner["high"].tolist()}
        elif kind == "sample_statistics":
            rng = np.random.default_rng(
                self.seed if seed is None else seed)
            mean, std = self.pce.sample_statistics(
                rng, num_samples=self._num_samples(num_samples),
                chunk_size=self.chunk_size)
            values = {"mean": mean.tolist(), "std": std.tolist()}
        else:
            raise ServingError(f"unknown query kind {kind!r}")
        return {"kind": kind, "values": values}
