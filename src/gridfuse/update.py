"""Measurement update: every observation weighs the prior by its normalised
likelihood; a GNSS epoch's mode only picks how its BSSD pairs form that one.
A value so huge that a distance or innovation overflows gets density 0, and a
satellite whose distances overflow is left out of its epoch's pairs."""

from __future__ import annotations

import logging
import math

import numpy as np

from .geometry import ReferencePoint, gamma_distance, gamma_hyperbolic
from .grid import MASS_FLOOR, GridSpec, LikelihoodField, usable_total
from .noise import GaussianModel, GmmModel, density
from .observations import LOS, NLOS, Angle, GnssPseudoranges, Range, RangeDifference

log = logging.getLogger(__name__)

SUM = "sum"
PRODUCT = "product"


def bssd_routes(gmm: GmmModel) -> dict[tuple[str, str], GaussianModel]:
    """The pair density per (minuend, subtrahend) visibility, picked from the
    BSSD residual mixture by what each component models: LOS/LOS pairs take
    the heaviest component; of the others, an NLOS minuend (positive bias)
    takes the one with the largest mean and an NLOS subtrahend the one with
    the smallest. Ties go to the lower index (``max`` and ``min`` return the
    first of equal keys). Both-NLOS pairs have no entry. Anything but a
    mixture of at least three components raises ``ValueError``."""
    if not (isinstance(gmm, GmmModel) and gmm.n_components >= 3):
        raise ValueError("bssd_gmm must be a GmmModel with at least 3 components "
                         f"to route BSSD pairs, got {gmm!r}")
    los = max(range(gmm.n_components), key=gmm.weights.__getitem__)
    rest = [c for c in range(gmm.n_components) if c != los]
    nlos_los = max(rest, key=gmm.means.__getitem__)
    los_nlos = min(rest, key=gmm.means.__getitem__)
    return {(LOS, LOS): gmm.component(los), (NLOS, LOS): gmm.component(nlos_los),
            (LOS, NLOS): gmm.component(los_nlos)}


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
    """Per-cell bearing likelihood of the innovation z - atan2(dy, dx), where
    (dx, dy) runs from the cell to the anchor. The innovation is formed in one
    rotation of the offsets by -z, as atan2(sin z dx - cos z dy,
    cos z dx + sin z dy), which lies in [-pi, pi] without a wrap. A cell under
    the anchor has no bearing; it takes the mean likelihood of the others, so
    it keeps its prior share."""
    x, y = grid.axes()
    dx = anchor.position[0] - x
    dy = anchor.position[1] - y
    c, s = math.cos(obs.value), math.sin(obs.value)
    innovation = np.subtract.outer(s * dx, c * dy).ravel()
    np.arctan2(innovation, np.add.outer(c * dx, s * dy).ravel(), out=innovation)
    like = density(model, innovation, innovation)
    undefined = np.logical_and.outer(dx == 0.0, dy == 0.0).ravel()
    if undefined.any():
        like[undefined] = like[~undefined].mean()
    return like


def bssd_pair_likelihoods(grid: GridSpec, obs: GnssPseudoranges,
                          routes: dict, acc: np.ndarray,
                          fold: np.ufunc) -> list[tuple[str, str]]:
    """Full-set differencing: fold the likelihood of every usable ordered pair
    into ``acc``, as ``fold(acc, likelihood, out=acc)``. A pair is usable when
    ``routes`` (see ``bssd_routes``) has a Gaussian for its visibilities and
    both satellites' distances are finite everywhere.

    Each satellite's distances are computed once. For a before b in epoch
    order, one innovation y = (d_a - d_b) - (rho_a - rho_b) serves both
    directions: it is the (b, a) innovation bit for bit, and the (a, b) one
    negated, since IEEE negation and x - z = -(z - x) are exact. So (a, b)
    has density N(y; -mu_ab, var_ab) and (b, a) N(y; mu_ba, var_ba), each
    sampled in one scratch buffer and folded in that order. Returns the
    (minuend, subtrahend) ids of the pairs used, in fold order.
    """
    negated = {vis: GaussianModel(-m.mean, m.std) for vis, m in routes.items()}
    y = np.empty(grid.num_cells)
    like = np.empty(grid.num_cells)
    used = []
    with np.errstate(over="ignore", invalid="ignore"):
        dists = {s.sat_id: gamma_distance(ReferencePoint(s.sat_id, s.position), grid)
                 for s in obs.satellites}
        sats = [s for s in obs.satellites if dists[s.sat_id].max() < np.inf]
        for i, a in enumerate(sats):
            for b in sats[i + 1:]:
                directions = [(model, pair) for model, pair in (
                    (negated.get((a.visibility, b.visibility)), (a.sat_id, b.sat_id)),
                    (routes.get((b.visibility, a.visibility)), (b.sat_id, a.sat_id)))
                    if model is not None]
                if a.sat_id == b.sat_id or not directions:
                    continue
                np.subtract(dists[a.sat_id], dists[b.sat_id], out=y)
                np.subtract(y, a.pseudorange - b.pseudorange, out=y)
                for model, pair in directions:
                    fold(acc, density(model, y, like), out=acc)
                    used.append(pair)
    return used


def _posterior(prior: LikelihoodField, like: np.ndarray) -> LikelihoodField:
    """Bayes' rule in ``like`` itself: normalise the likelihood, weigh it by
    the prior and floor it."""
    like /= usable_total(like, "observation likelihood carries no mass")
    like *= prior.mass
    usable_total(like, "posterior mass collapsed in the update")
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
                     gmm: GmmModel, mode: str = SUM) -> LikelihoodField:
    """Weigh the prior by the epoch's likelihood: its usable pairs, with
    densities routed from the BSSD residual mixture ``gmm``, added into zeros
    (``sum``, the paper's summed pairs; 0.0 + x is x exactly) or multiplied
    into ones (``product``, their joint density)."""
    check_mode(mode)
    start, fold = (np.zeros, np.add) if mode == SUM else (np.ones, np.multiply)
    like = start(prior.mass.shape)
    used = bssd_pair_likelihoods(prior.spec, obs, bssd_routes(gmm), like, fold)
    n = len(obs.satellites)
    log.debug("GNSS epoch with %d satellite(s): %d BSSD pair(s) used, %d dropped",
              n, len(used), n * (n - 1) - len(used))
    if not used:
        log.warning("GNSS epoch with %d satellite(s): no usable BSSD pair; "
                    "prior unchanged", n)
        return prior
    return _posterior(prior, like)
