"""Reference fusion of likelihood arrays with a prior, written out for tests."""

import numpy as np

from gridfuse.grid import MASS_FLOOR, LikelihoodField
from gridfuse.update import SUM


def reference_combine(prior, arrays, mode=SUM):
    """Fuse ``arrays`` with the prior: sum them (sum) or multiply them
    (product) in list order, normalise and weigh by the prior. The arrays are
    left untouched."""
    post = arrays[0].copy()
    for arr in arrays[1:]:
        if mode == SUM:
            post += arr
        else:
            post *= arr
    post /= post.sum()
    post *= prior.mass
    return LikelihoodField(prior.spec, np.maximum(post, MASS_FLOOR))
