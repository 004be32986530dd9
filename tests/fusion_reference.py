"""Reference fusion of likelihood arrays with a prior, written out for tests."""

import numpy as np

from gridfuse.grid import MASS_FLOOR, LikelihoodField
from gridfuse.update import SUM


def reference_combine(prior, arrays, mode=SUM):
    """Fuse ``arrays`` with the prior: sum them in list order, normalise and
    weigh by the prior (sum), or multiply them into the prior (product). The
    arrays are left untouched."""
    if mode == SUM:
        post = arrays[0].copy()
        for arr in arrays[1:]:
            post += arr
        post /= post.sum()
        post *= prior.mass
    else:
        post = prior.mass * arrays[0]
        for arr in arrays[1:]:
            post *= arr
    return LikelihoodField(prior.spec, np.maximum(post, MASS_FLOOR))
