"""UQ analysis over the sparse-grid ensemble (closing the Fig 3 loop).

The pipeline exists to "quantify the effect that uncertainty has on
local mechanical responses in processing conditions" — this module
does the quantification:

- :func:`weighted_moments` — mean/variance/std of any response
  quantity under the sparse-grid quadrature weights (the whole reason
  Stage 0 produces *weights*, not just points).
- :func:`main_effects` — per-parameter first-order sensitivity
  estimates from the quadrature ensemble (variance of the conditional
  means over parameter bins), normalized Sobol-style.
- :func:`calibrate_absorptivity` — the inverse problem of the paper's
  ref. [30] ("Calibrating uncertain parameters in melt pool
  simulations"): least-squares fit of the laser absorptivity against
  measured melt-pool widths using the Rosenthal surrogate.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.exaam.models import rosenthal_meltpool


def weighted_moments(values: Sequence[float], weights: Sequence[float]) -> dict:
    """Quadrature mean / variance / std of a response quantity.

    ``weights`` are the sparse-grid quadrature weights over the
    parameter box; they are normalized internally so the result is an
    expectation under the uniform distribution on the box.  Smolyak
    weights can be negative — that is fine for the mean, and the
    variance is computed as E[x²] − E[x]² under the same rule (clipped
    at zero against quadrature noise).
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError("values and weights must have the same shape")
    if values.size == 0:
        raise ValueError("need at least one sample")
    total = weights.sum()
    if abs(total) < 1e-12:
        raise ValueError("weights sum to zero")
    w = weights / total
    mean = float(np.dot(w, values))
    var = float(max(0.0, np.dot(w, values**2) - mean**2))
    return {"mean": mean, "variance": var, "std": var**0.5, "n": values.size}


def main_effects(
    points: np.ndarray,
    values: Sequence[float],
    weights: Sequence[float],
    n_bins: int = 3,
) -> np.ndarray:
    """First-order (main-effect) sensitivity per parameter.

    For each parameter dimension, samples are grouped into ``n_bins``
    quantile bins; the variance of the bin-conditional weighted means,
    normalized by the total variance, approximates the Sobol main
    effect.  Coarse but assumption-free — right for the small
    ensembles the sparse grid produces.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.ndim != 2 or points.shape[0] != values.size:
        raise ValueError("points must be (n_samples, dim) matching values")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    total = weighted_moments(values, weights)
    if total["variance"] <= 0:
        return np.zeros(points.shape[1])
    # Positive analysis weights (quadrature signs don't matter for
    # grouping statistics).
    w = np.abs(weights)
    w = w / w.sum()
    effects = np.empty(points.shape[1])
    for d in range(points.shape[1]):
        x = points[:, d]
        edges = np.quantile(x, np.linspace(0, 1, n_bins + 1))
        edges[-1] += 1e-9
        bin_means = []
        bin_weights = []
        for b in range(n_bins):
            mask = (x >= edges[b]) & (x < edges[b + 1])
            if not mask.any() or w[mask].sum() <= 0:
                continue
            bin_means.append(np.average(values[mask], weights=w[mask]))
            bin_weights.append(w[mask].sum())
        if len(bin_means) < 2:
            effects[d] = 0.0
            continue
        bin_means = np.asarray(bin_means)
        bin_weights = np.asarray(bin_weights)
        bin_weights = bin_weights / bin_weights.sum()
        grand = np.dot(bin_weights, bin_means)
        between_var = np.dot(bin_weights, (bin_means - grand) ** 2)
        effects[d] = float(min(1.0, between_var / total["variance"]))
    return effects


def calibrate_absorptivity(
    measured_widths_m: Sequence[float],
    powers_W: Sequence[float],
    speeds_m_per_s: Sequence[float],
    bounds: tuple = (0.1, 0.9),
    **rosenthal_kwargs,
) -> dict:
    """Fit the laser absorptivity to measured melt-pool widths.

    The ref-[30] inverse problem at surrogate scale: given observed
    pool widths from (power, speed) experiments, find the absorptivity
    minimizing the squared relative width error under the Rosenthal
    model.  Returns the fitted value, the residual, and per-experiment
    predicted widths.
    """
    measured = np.asarray(measured_widths_m, dtype=float)
    powers = np.asarray(powers_W, dtype=float)
    speeds = np.asarray(speeds_m_per_s, dtype=float)
    if not (measured.size == powers.size == speeds.size > 0):
        raise ValueError("need equal-length, non-empty experiment arrays")
    if np.any(measured <= 0):
        raise ValueError("measured widths must be positive")

    def predicted(eta: float) -> np.ndarray:
        return np.array(
            [
                rosenthal_meltpool(
                    power_W=p, speed_m_per_s=v, absorptivity=eta,
                    **rosenthal_kwargs,
                ).width_m
                for p, v in zip(powers, speeds)
            ]
        )

    def loss(eta: float) -> float:
        return float(np.mean((predicted(eta) / measured - 1.0) ** 2))

    from scipy import optimize

    result = optimize.minimize_scalar(loss, bounds=bounds, method="bounded")
    eta = float(result.x)
    return {
        "absorptivity": eta,
        "rms_relative_error": float(np.sqrt(loss(eta))),
        "predicted_widths_m": predicted(eta).tolist(),
        "n_experiments": int(measured.size),
    }
