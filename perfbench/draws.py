"""Seeded random admissible models for the benchmark workloads.

Each sampler draws from a fixed box of parameters and rejects a draw unless
``utilsens.validate`` accepts it and its mean-reversion rate clears
``MARGIN``, so a 1e-3 bump of any parameter stays admissible.  The same
generator state always yields the same model.
"""

from __future__ import annotations

import numpy as np

import utilsens as u

MARGIN = 0.05


def draw_kim_omberg(rng: np.random.Generator) -> u.Model:
    while True:
        params = u.KimOmbergParams(
            mu=rng.uniform(-0.8, 0.8), varsigma=rng.uniform(0.15, 0.5),
            k=rng.uniform(0.5, 2.0), m_bar=rng.uniform(-0.2, 0.4),
            sigma=rng.uniform(0.1, 0.5), rho=rng.uniform(-0.85, 0.85),
            chi=rng.uniform(-0.4, 0.6))
        prefs = u.Preferences(p=float(rng.uniform(-4.0, -0.3)))
        try:
            model = u.validate(params, prefs)
        except u.ValidationError:
            continue
        c = model.constants
        slope = (c.alpha4 - c.alpha1) / c.alpha2
        if c.alpha1 + slope * params.sigma**2 / 2.0 >= MARGIN:
            return model


def draw_heston(rng: np.random.Generator) -> u.Model:
    while True:
        k = rng.uniform(0.5, 2.5)
        m_bar = rng.uniform(0.03, 0.2)
        params = u.HestonParams(
            mu=rng.uniform(-0.8, 0.8), varsigma=rng.uniform(0.15, 0.5),
            k=k, m_bar=m_bar, sigma=rng.uniform(0.1, 0.95 * np.sqrt(2.0 * k * m_bar)),
            rho=rng.uniform(-0.85, 0.85), chi=rng.uniform(0.02, 0.3))
        prefs = u.Preferences(p=float(rng.uniform(-4.0, -0.3)))
        try:
            model = u.validate(params, prefs)
        except u.ValidationError:
            continue
        if model.constants.beta1 >= MARGIN:
            return model


def draw_ou_complete(rng: np.random.Generator) -> u.Model:
    params = u.OUCompleteParams(
        mu=rng.uniform(-0.5, 0.5), b=rng.uniform(0.3, 1.5),
        varsigma=rng.uniform(0.2, 0.6), s0=rng.uniform(-0.5, 1.0))
    return u.validate(params, u.Preferences(p=float(rng.uniform(-4.0, -0.3))))


DRAWS = {
    u.KIM_OMBERG: draw_kim_omberg,
    u.HESTON: draw_heston,
    u.OU_COMPLETE: draw_ou_complete,
}
