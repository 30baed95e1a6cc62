"""Fixture: a device module that makes generators from nothing.
Never imported; parsed by reprolint in tests *as*
``src/repro/core/edge.py``.  Expected: 6x unseeded-draw; a seed, a
generator or a parameter that may hold ``None`` is legal."""

import numpy as np
from numpy.random import default_rng

from repro import utils
from repro.utils import ensure_rng


class Device:
    def __init__(self, rng=None, seed=7):
        self.rng = ensure_rng()  # unseeded-draw: no argument
        self.backup = ensure_rng(None)  # unseeded-draw: a literal None
        self.other = utils.ensure_rng(seed=None)  # unseeded-draw: by keyword
        self.fresh = np.random.default_rng()  # unseeded-draw: no argument
        self.named = default_rng()  # unseeded-draw: an imported name
        self.none = np.random.default_rng(None)  # unseeded-draw: a literal None
        self.seeded = ensure_rng(rng)  # fine: the caller's choice
        self.child = np.random.default_rng(seed)  # fine: seeded
        self.spawned = np.random.default_rng(self.rng.integers(2**32))  # fine
