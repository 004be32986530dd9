"""Measurement update: observation likelihood sampling and fusion with the prior."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import (ReferencePoint, gamma_angle, gamma_distance,
                       gamma_hyperbolic, innovations)
from .grid import MASS_FLOOR, DegenerateFieldError, GridSpec, LikelihoodField
from .noise import GmmModel, density
from .observations import LOS, NLOS, Angle, GnssPseudoranges, Range, RangeDifference

log = logging.getLogger(__name__)

SUM = "sum"
PRODUCT = "product"


@dataclass(frozen=True)
class BssdRouting:
    """Per-visibility-case density selection for differenced pseudoranges.

    los_los applies when both satellites of a pair are LOS, nlos_los when the
    minuend is NLOS (positive residual mean), los_nlos when the subtrahend is
    NLOS (negative mean). Both-NLOS pairs are dropped.
    """

    los_los: object
    nlos_los: object
    los_nlos: object

    @classmethod
    def from_gmm(cls, gmm: GmmModel) -> "BssdRouting":
        if gmm.n_components < 3:
            raise ValueError("routing needs at least 3 mixture components")
        return cls(gmm.component(0), gmm.component(1), gmm.component(2))

    def select(self, vis_a: str, vis_b: str):
        if vis_a == LOS and vis_b == LOS:
            return self.los_los
        if vis_a == NLOS and vis_b == LOS:
            return self.nlos_los
        if vis_a == LOS and vis_b == NLOS:
            return self.los_nlos
        return None


def likelihood_range(grid: GridSpec, obs: Range, anchor: ReferencePoint,
                     model) -> np.ndarray:
    return density(model, innovations(obs.value, gamma_distance(anchor, grid)))


def likelihood_tdoa(grid: GridSpec, obs: RangeDifference, ref_a: ReferencePoint,
                    ref_b: ReferencePoint, model) -> np.ndarray:
    return density(model, innovations(obs.value, gamma_hyperbolic(ref_a, ref_b, grid)))


def likelihood_aoa(grid: GridSpec, obs: Angle, anchor: ReferencePoint,
                   model) -> np.ndarray:
    """Per-cell bearing likelihood. A cell under the anchor has no bearing; it
    takes the mean likelihood of the others, so it keeps its prior share."""
    y = innovations(obs.value, gamma_angle(anchor, grid), wrap=True)
    defined = np.isfinite(y)
    if np.all(defined):
        return density(model, y)
    like = np.empty_like(y)
    like[defined] = density(model, y[defined])
    like[~defined] = like[defined].mean()
    return like


def bssd_pair_likelihoods(grid: GridSpec, obs: GnssPseudoranges,
                          routing: BssdRouting) -> list[np.ndarray]:
    """Full-set differencing: one likelihood array per usable ordered pair."""
    sats = obs.satellites
    dists = {}
    for s in sats:
        ref = ReferencePoint(s.sat_id, s.position)
        dists[s.sat_id] = gamma_distance(ref, grid)
    arrays = []
    for a in sats:
        for b in sats:
            if a.sat_id == b.sat_id:
                continue
            model = routing.select(a.visibility, b.visibility)
            if model is None:
                continue
            delta_rho = a.pseudorange - b.pseudorange
            y = delta_rho - (dists[a.sat_id] - dists[b.sat_id])
            arrays.append(density(model, y))
    return arrays


def combine(prior: LikelihoodField, likelihoods: list[np.ndarray],
            mode: str = SUM) -> LikelihoodField:
    """Fuse observation likelihoods with the prior and normalize.

    mode="sum": likelihood arrays are summed and normalized, then multiplied
    elementwise with the prior (the filter's native combination rule).
    mode="product": canonical Bayes, elementwise product of everything.
    Both accumulate into one buffer in list order.
    """
    if not likelihoods:
        return prior
    if mode == SUM:
        post = np.array(likelihoods[0], dtype=float)
        for arr in likelihoods[1:]:
            post += arr
        s = post.sum()
        if s <= 0 or not np.isfinite(s):
            raise DegenerateFieldError("summed observation likelihood carries no mass")
        post /= s
        post *= prior.mass
    elif mode == PRODUCT:
        post = prior.mass * likelihoods[0]
        for arr in likelihoods[1:]:
            post *= arr
    else:
        raise ValueError(f"unknown combination mode {mode!r}")
    s = post.sum()
    if s <= 0 or not np.isfinite(s):
        raise DegenerateFieldError("posterior mass collapsed during combine")
    return LikelihoodField(prior.spec, np.maximum(post, MASS_FLOOR, out=post))


def update_range(prior: LikelihoodField, obs: Range, anchor: ReferencePoint,
                 model, mode: str = SUM) -> LikelihoodField:
    return combine(prior, [likelihood_range(prior.spec, obs, anchor, model)], mode)


def update_tdoa(prior: LikelihoodField, obs: RangeDifference,
                ref_a: ReferencePoint, ref_b: ReferencePoint, model,
                mode: str = SUM) -> LikelihoodField:
    return combine(prior, [likelihood_tdoa(prior.spec, obs, ref_a, ref_b, model)], mode)


def update_aoa(prior: LikelihoodField, obs: Angle, anchor: ReferencePoint,
               model, mode: str = SUM) -> LikelihoodField:
    return combine(prior, [likelihood_aoa(prior.spec, obs, anchor, model)], mode)


def update_gnss_bssd(prior: LikelihoodField, obs: GnssPseudoranges,
                     routing: BssdRouting, mode: str = SUM) -> LikelihoodField:
    arrays = bssd_pair_likelihoods(prior.spec, obs, routing)
    if not arrays:
        log.warning("GNSS epoch with %d satellite(s): no usable BSSD pair; "
                    "prior unchanged", len(obs.satellites))
        return prior
    return combine(prior, arrays, mode)
