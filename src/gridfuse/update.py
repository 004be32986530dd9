"""Measurement update: every observation weighs the prior by its normalised
likelihood; a GNSS epoch's mode only picks how its BSSD pairs form that one.
A value so huge that a distance or innovation overflows gets density 0."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import (ReferencePoint, gamma_angle, gamma_distance,
                       gamma_hyperbolic, wrap_angle)
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

    def __post_init__(self):
        for name, model in vars(self).items():
            if not hasattr(model, "pdf"):
                raise TypeError(f"routing {name} must be a density model, got {model!r}")

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


def check_mode(mode: str) -> None:
    if mode not in (SUM, PRODUCT):
        raise ValueError(f"unknown combination mode {mode!r}")


def _innovation_pdf(value: float, gamma: np.ndarray, model) -> np.ndarray:
    """pdf(value - gamma) per cell, computed in ``gamma``'s own array."""
    np.subtract(value, gamma, out=gamma)
    return density(model, gamma, gamma)


def likelihood_range(grid: GridSpec, obs: Range, anchor: ReferencePoint,
                     model) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _innovation_pdf(obs.value, gamma_distance(anchor, grid), model)


def likelihood_tdoa(grid: GridSpec, obs: RangeDifference, ref_a: ReferencePoint,
                    ref_b: ReferencePoint, model) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return _innovation_pdf(obs.value, gamma_hyperbolic(ref_a, ref_b, grid), model)


def likelihood_aoa(grid: GridSpec, obs: Angle, anchor: ReferencePoint,
                   model) -> np.ndarray:
    """Per-cell bearing likelihood of the innovation wrapped to (-pi, pi]. A
    cell under the anchor has no bearing; it takes the mean likelihood of the
    others, so it keeps its prior share."""
    y = wrap_angle(obs.value - gamma_angle(anchor, grid))
    undefined = np.isnan(y)
    like = density(model, y, y)
    if undefined.any():
        like[undefined] = like[~undefined].mean()
    return like


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
    like = np.empty(grid.num_cells)
    used = []
    with np.errstate(over="ignore", invalid="ignore"):
        dists = {s.sat_id: gamma_distance(ReferencePoint(s.sat_id, s.position), grid)
                 for s in sats}
        for a in sats:
            for b in sats:
                if a.sat_id == b.sat_id:
                    continue
                model = routing.select(a.visibility, b.visibility)
                if model is None:
                    continue
                np.subtract(dists[a.sat_id], dists[b.sat_id], out=like)
                fold(acc, _innovation_pdf(a.pseudorange - b.pseudorange, like, model),
                     out=acc)
                used.append((a.sat_id, b.sat_id))
    return used


def _posterior(prior: LikelihoodField, like: np.ndarray) -> LikelihoodField:
    """Bayes' rule in ``like`` itself: normalise the likelihood, weigh it by
    the prior and floor it."""
    s = like.sum()
    if s <= 0 or not np.isfinite(s):
        raise DegenerateFieldError("observation likelihood carries no mass")
    like /= s
    like *= prior.mass
    s = like.sum()
    if s <= 0 or not np.isfinite(s):
        raise DegenerateFieldError("posterior mass collapsed in the update")
    return LikelihoodField(prior.spec, np.maximum(like, MASS_FLOOR, out=like))


def update_range(prior: LikelihoodField, obs: Range, anchor: ReferencePoint,
                 model) -> LikelihoodField:
    return _posterior(prior, likelihood_range(prior.spec, obs, anchor, model))


def update_tdoa(prior: LikelihoodField, obs: RangeDifference,
                ref_a: ReferencePoint, ref_b: ReferencePoint, model) -> LikelihoodField:
    return _posterior(prior, likelihood_tdoa(prior.spec, obs, ref_a, ref_b, model))


def update_aoa(prior: LikelihoodField, obs: Angle, anchor: ReferencePoint,
               model) -> LikelihoodField:
    return _posterior(prior, likelihood_aoa(prior.spec, obs, anchor, model))


def update_gnss_bssd(prior: LikelihoodField, obs: GnssPseudoranges,
                     routing: BssdRouting, mode: str = SUM) -> LikelihoodField:
    """Weigh the prior by the epoch's likelihood: its usable pairs added into
    zeros (``sum``, the paper's summed pairs; 0.0 + x is x exactly) or
    multiplied into ones (``product``, their joint density)."""
    check_mode(mode)
    start, fold = (np.zeros, np.add) if mode == SUM else (np.ones, np.multiply)
    like = start(prior.mass.shape)
    used = bssd_pair_likelihoods(prior.spec, obs, routing, like, fold)
    n = len(obs.satellites)
    log.debug("GNSS epoch with %d satellite(s): %d BSSD pair(s) used, %d dropped",
              n, len(used), n * (n - 1) - len(used))
    if not used:
        log.warning("GNSS epoch with %d satellite(s): no usable BSSD pair; "
                    "prior unchanged", n)
        return prior
    return _posterior(prior, like)
