"""Surrogate physics for the ExaAM chain.

Each stand-in produces real numerical output with the right qualitative
physics at laptop scale:

- :func:`rosenthal_meltpool` — the classic analytic solution for a
  moving point heat source (the AdditiveFOAM stand-in): melt pool
  dimensions and the thermal conditions (G, R) at the solidification
  front.
- :func:`exaca_grain_growth` — a genuine 2-D cellular-automaton
  solidification model (the ExaCA stand-in): competitive grain growth
  from seeded nuclei under a directional bias, producing a grain-ID map
  and orientation statistics.
- :func:`exaconstit_homogenize` — Taylor-type crystal-plasticity
  homogenization (the ExaConstit stand-in): a polycrystal stress-strain
  curve from per-grain Taylor factors and power-law hardening.
- :func:`fit_material_model` — the "optimization script" of §4.2:
  least-squares fit of macroscopic Ludwik parameters over many curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


# -- Stage 1a: melt pool (AdditiveFOAM surrogate) ---------------------------------


@dataclass(frozen=True)
class MeltPoolResult:
    """Melt pool geometry and solidification conditions."""

    length_m: float
    width_m: float
    depth_m: float
    thermal_gradient_K_per_m: float   # G at the trailing edge
    solidification_rate_m_per_s: float  # R (= scan speed at the tail)
    peak_temperature_K: float

    @property
    def cooling_rate_K_per_s(self) -> float:
        """G × R — the quantity that selects the microstructure regime."""
        return self.thermal_gradient_K_per_m * self.solidification_rate_m_per_s


def rosenthal_meltpool(
    power_W: float = 200.0,
    speed_m_per_s: float = 0.8,
    absorptivity: float = 0.35,
    conductivity_W_mK: float = 25.0,
    diffusivity_m2_s: float = 7e-6,
    t_ambient_K: float = 353.0,
    t_melt_K: float = 1620.0,
    n_grid: int = 200,
) -> MeltPoolResult:
    """Analytic Rosenthal solution for a moving point source.

    T(x, r) = T0 + (ηQ / 2πk R_d) · exp(−v (R_d + x) / 2α), with the
    source moving in −x (so the tail trails at x > 0).  The melt pool
    boundary is the T = T_melt isotherm, located numerically on a
    centreline/cross-section grid.
    """
    if power_W <= 0 or speed_m_per_s <= 0:
        raise ValueError("power and speed must be positive")
    if not 0 < absorptivity <= 1:
        raise ValueError("absorptivity must be in (0, 1]")

    q = absorptivity * power_W
    k = conductivity_W_mK
    v = speed_m_per_s
    alpha = diffusivity_m2_s

    def temperature(x: np.ndarray, r_perp: np.ndarray) -> np.ndarray:
        rd = np.sqrt(x**2 + r_perp**2)
        rd = np.maximum(rd, 1e-9)
        return t_ambient_K + q / (2 * np.pi * k * rd) * np.exp(
            -v * (rd + x) / (2 * alpha)
        )

    # Characteristic length for grid sizing.
    l_char = q / (2 * np.pi * k * (t_melt_K - t_ambient_K))
    span = 50 * l_char
    xs = np.linspace(-span, span, n_grid * 4)
    t_line = temperature(xs, np.zeros_like(xs))
    melted = t_line >= t_melt_K
    length = xs[melted].max() - xs[melted].min() if melted.any() else 0.0
    if length < 1e-6:
        # The point-source singularity always exceeds T_melt in an
        # infinitesimal neighbourhood; a pool below 1 micron means the
        # parameters do not produce a physical melt track.
        raise ValueError(
            "Parameters produce no resolvable melting; increase power "
            "or absorptivity"
        )

    rs = np.linspace(1e-8, span, n_grid * 4)
    # Width/depth at the source plane (x = 0): Rosenthal is axisymmetric
    # about the travel axis, so half-width == depth.
    t_cross = temperature(np.zeros_like(rs), rs)
    cross_melted = rs[t_cross >= t_melt_K]
    half_width = cross_melted.max() if cross_melted.size else 0.0

    # Thermal gradient at the trailing edge of the pool (centreline).
    # With the source moving in -x, the tail (solidification front) is
    # the most negative melted x.
    x_tail = xs[melted].min()
    dx = span / (n_grid * 40)
    g = abs(
        (temperature(np.array([x_tail + dx]), np.zeros(1))
         - temperature(np.array([x_tail - dx]), np.zeros(1)))[0]
    ) / (2 * dx)

    peak = float(temperature(np.array([1e-7]), np.zeros(1))[0])
    return MeltPoolResult(
        length_m=float(length),
        width_m=float(2 * half_width),
        depth_m=float(half_width),
        thermal_gradient_K_per_m=float(g),
        solidification_rate_m_per_s=v,
        peak_temperature_K=peak,
    )


# -- Stage 1b: cellular automaton (ExaCA surrogate) --------------------------------


@dataclass(frozen=True)
class GrainStructure:
    """Output of the CA: grain map + orientation statistics."""

    grain_map: np.ndarray          # (ny, nx) int grain ids
    orientations_deg: np.ndarray   # (n_grains,) lattice orientation
    mean_grain_area: float
    n_grains: int
    aspect_ratio: float            # columnar (>1) vs equiaxed (~1)


def exaca_grain_growth(
    nx: int = 64,
    ny: int = 64,
    n_seeds: int = 30,
    directional_bias: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> GrainStructure:
    """Competitive grain growth on a 2-D cellular automaton.

    Seeds nucleate with random crystallographic orientations at the
    bottom boundary region and grow cell-by-cell; ``directional_bias``
    in [0, 1] favours growth along +y (high thermal gradient →
    columnar grains), 0 gives isotropic (equiaxed) growth — the G/R
    dependence ExaCA models.
    """
    if nx < 4 or ny < 4:
        raise ValueError("grid must be at least 4x4")
    if not 0 <= directional_bias <= 1:
        raise ValueError("directional_bias must be in [0, 1]")
    if n_seeds < 1 or n_seeds > nx * ny // 4:
        raise ValueError("n_seeds out of range")
    rng = rng or np.random.default_rng(0)

    grain = np.zeros((ny, nx), dtype=np.int32)  # 0 = liquid
    orientations = rng.uniform(0, 90, size=n_seeds)

    # Nucleation site placement follows the solidification regime: a
    # strong directional gradient (high bias) grows epitaxially from
    # the melt-pool boundary (bottom rows only); low bias nucleates
    # throughout the volume (equiaxed).
    seed_band = max(2, int(round(ny * (1.0 - 0.9 * directional_bias))))
    seed_y = rng.integers(0, seed_band, size=n_seeds)
    seed_x = rng.integers(0, nx, size=n_seeds)
    for gid in range(n_seeds):
        grain[seed_y[gid], seed_x[gid]] = gid + 1

    # Iterate capture events until no liquid remains.  Growth favours
    # +y with probability weight (1 + bias) vs lateral (1 - bias).
    while (grain == 0).any():
        new = grain.copy()
        liquid = np.argwhere(grain == 0)
        rng.shuffle(liquid)
        changed = False
        for y, x in liquid:
            neighbours = []
            weights = []
            if y > 0 and grain[y - 1, x]:
                neighbours.append(grain[y - 1, x])
                weights.append(1.0 + directional_bias)  # growing upward
            if y < ny - 1 and grain[y + 1, x]:
                neighbours.append(grain[y + 1, x])
                weights.append(1.0 - directional_bias * 0.9)
            if x > 0 and grain[y, x - 1]:
                neighbours.append(grain[y, x - 1])
                weights.append(1.0 - directional_bias * 0.9)
            if x < nx - 1 and grain[y, x + 1]:
                neighbours.append(grain[y, x + 1])
                weights.append(1.0 - directional_bias * 0.9)
            if not neighbours:
                continue
            w = np.asarray(weights)
            pick = rng.choice(len(neighbours), p=w / w.sum())
            new[y, x] = neighbours[pick]
            changed = True
        grain = new
        if not changed:
            # Isolated liquid pocket with no solid neighbour cannot
            # happen on a connected grid, but guard against stalls.
            break

    ids, counts = np.unique(grain[grain > 0], return_counts=True)
    # Aspect ratio: mean grain extent in y over extent in x.
    aspects = []
    for gid in ids:
        ys, xs = np.where(grain == gid)
        ey = ys.max() - ys.min() + 1
        ex = xs.max() - xs.min() + 1
        aspects.append(ey / ex)
    return GrainStructure(
        grain_map=grain,
        orientations_deg=orientations[ids - 1],
        mean_grain_area=float(counts.mean()),
        n_grains=int(ids.size),
        aspect_ratio=float(np.mean(aspects)),
    )


# -- Stage 3: crystal plasticity (ExaConstit surrogate) ------------------------------


def exaconstit_homogenize(
    orientations_deg: np.ndarray,
    strain: Optional[np.ndarray] = None,
    sigma0_MPa: float = 250.0,
    hardening_K_MPa: float = 600.0,
    hardening_n: float = 0.45,
    temperature_K: float = 293.0,
) -> tuple:
    """Polycrystal stress-strain curve via Taylor-factor averaging.

    Each grain contributes ``M(θ) · τ(ε)`` with an orientation-dependent
    Taylor factor M ∈ [2.0, 3.67] (fcc bounds) and Ludwik slip hardening
    ``τ = σ0 + K ε^n``; thermal softening scales flow stress by
    ``(1 − 3·10⁻⁴ (T − 293))``.  Returns ``(strain, stress_MPa)``.
    """
    orientations = np.asarray(orientations_deg, dtype=float)
    if orientations.size == 0:
        raise ValueError("need at least one grain orientation")
    if strain is None:
        strain = np.linspace(0.0, 0.2, 41)
    strain = np.asarray(strain, dtype=float)
    if np.any(strain < 0):
        raise ValueError("strain must be non-negative")

    # Taylor factor varies smoothly with misorientation from <001>.
    m = 2.0 + 1.67 * np.sin(np.deg2rad(orientations))**2  # in [2.0, 3.67]
    m_bar = float(np.mean(m)) / 3.06  # normalize by random-texture Taylor factor

    softening = max(0.1, 1.0 - 3e-4 * (temperature_K - 293.0))
    stress = m_bar * softening * (sigma0_MPa + hardening_K_MPa * strain**hardening_n)
    stress[strain == 0] = 0.0  # elastic origin omitted in this surrogate
    return strain, stress


def fit_material_model(curves: list) -> dict:
    """Fit macroscopic Ludwik parameters over many RVE curves.

    The §4.2 "optimization script [that] calculates the necessary
    macroscopic material model parameters".  ``curves`` is a list of
    ``(strain, stress)`` pairs; returns fitted ``sigma0``, ``K``, ``n``
    and the RMS residual.
    """
    if not curves:
        raise ValueError("need at least one curve")
    strain = np.concatenate([np.asarray(c[0], float) for c in curves])
    stress = np.concatenate([np.asarray(c[1], float) for c in curves])
    mask = strain > 0
    if mask.sum() < 3:
        raise ValueError("need at least three plastic points to fit")
    strain, stress = strain[mask], stress[mask]

    def ludwik(eps, sigma0, big_k, n):
        return sigma0 + big_k * eps**n

    from scipy import optimize

    p0 = (float(stress.min()), float(np.ptp(stress) + 1.0), 0.5)
    params, _ = optimize.curve_fit(
        ludwik, strain, stress, p0=p0, maxfev=20000,
        bounds=([0, 0, 0.01], [np.inf, np.inf, 1.0]),
    )
    residual = float(np.sqrt(np.mean((ludwik(strain, *params) - stress) ** 2)))
    return {
        "sigma0_MPa": float(params[0]),
        "K_MPa": float(params[1]),
        "n": float(params[2]),
        "rms_residual_MPa": residual,
        "n_points": int(strain.size),
    }
