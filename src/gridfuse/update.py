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
    y = innovations(obs.value, gamma_distance(anchor, grid))
    return density(model, y, y)


def likelihood_tdoa(grid: GridSpec, obs: RangeDifference, ref_a: ReferencePoint,
                    ref_b: ReferencePoint, model) -> np.ndarray:
    y = innovations(obs.value, gamma_hyperbolic(ref_a, ref_b, grid))
    return density(model, y, y)


def likelihood_aoa(grid: GridSpec, obs: Angle, anchor: ReferencePoint,
                   model) -> np.ndarray:
    """Per-cell bearing likelihood. A cell under the anchor has no bearing; it
    takes the mean likelihood of the others, so it keeps its prior share."""
    y = innovations(obs.value, gamma_angle(anchor, grid), wrap=True)
    defined = np.isfinite(y)
    if np.all(defined):
        return density(model, y, y)
    inner = y[defined]
    y[defined] = density(model, inner, inner)
    y[~defined] = y[defined].mean()
    return y


def bssd_pair_likelihoods(grid: GridSpec, obs: GnssPseudoranges,
                          routing: BssdRouting, acc: np.ndarray,
                          fold: np.ufunc) -> list[tuple[str, str]]:
    """Full-set differencing: fold the likelihood of every usable ordered pair
    into ``acc`` in pair order, as ``fold(acc, likelihood, out=acc)``.

    Each satellite's distances are computed once, and every pair is sampled
    in one scratch buffer, so no per-pair array is kept. Returns the
    (minuend, subtrahend) ids of the pairs used.
    """
    sats = obs.satellites
    dists = {}
    for s in sats:
        ref = ReferencePoint(s.sat_id, s.position)
        dists[s.sat_id] = gamma_distance(ref, grid)
    like = np.empty(grid.num_cells)
    used = []
    for a in sats:
        for b in sats:
            if a.sat_id == b.sat_id:
                continue
            model = routing.select(a.visibility, b.visibility)
            if model is None:
                continue
            # y = delta_rho - (d_a - d_b), then its pdf, all in ``like``
            np.subtract(dists[a.sat_id], dists[b.sat_id], out=like)
            np.subtract(a.pseudorange - b.pseudorange, like, out=like)
            fold(acc, density(model, like, like), out=acc)
            used.append((a.sat_id, b.sat_id))
    return used


def _accumulator(prior: LikelihoodField, mode: str):
    """The buffer and ufunc that fold likelihoods for ``mode``: zeros to add
    them into (sum; 0.0 + x is x exactly, so the first array keeps its bits),
    or a copy of the prior to multiply them into (product)."""
    if mode == SUM:
        return np.zeros(prior.mass.shape), np.add
    if mode == PRODUCT:
        return prior.mass.copy(), np.multiply
    raise ValueError(f"unknown combination mode {mode!r}")


def _posterior(prior: LikelihoodField, post: np.ndarray, mode: str) -> LikelihoodField:
    """Finish a fold in place: in sum mode normalise the summed likelihood and
    weigh it by the prior (product mode started from the prior), then floor."""
    if mode == SUM:
        s = post.sum()
        if s <= 0 or not np.isfinite(s):
            raise DegenerateFieldError("summed observation likelihood carries no mass")
        post /= s
        post *= prior.mass
    s = post.sum()
    if s <= 0 or not np.isfinite(s):
        raise DegenerateFieldError("posterior mass collapsed during combine")
    return LikelihoodField(prior.spec, np.maximum(post, MASS_FLOOR, out=post))


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
    post, fold = _accumulator(prior, mode)
    for arr in likelihoods:
        fold(post, arr, out=post)
    return _posterior(prior, post, mode)


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
    post, fold = _accumulator(prior, mode)
    used = bssd_pair_likelihoods(prior.spec, obs, routing, post, fold)
    n = len(obs.satellites)
    log.debug("GNSS epoch with %d satellite(s): %d BSSD pair(s) used, %d dropped",
              n, len(used), n * (n - 1) - len(used))
    if not used:
        log.warning("GNSS epoch with %d satellite(s): no usable BSSD pair; "
                    "prior unchanged", n)
        return prior
    return _posterior(prior, post, mode)
