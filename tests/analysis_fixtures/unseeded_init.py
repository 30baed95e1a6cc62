"""Fixture: a serving module that builds networks with a throwaway init.
Never imported; parsed by reprolint in tests *as*
``src/repro/core/transfer.py``.  Expected: 6x unseeded-draw; a builder
given a generator, a parameter or ``**kwargs``, a rebuild from stored
weights and another class's ``from_config`` are legal."""

from repro import nn
from repro.nn import Sequential, build_mlp, layer_from_config
from repro.nn.layers import layer_from_config as make_layer


def load(meta, state, rng=None, **kwargs):
    net = Sequential.from_config(meta)  # unseeded-draw: no rng
    net = nn.Sequential.from_config(meta, None)  # unseeded-draw: a literal None
    mlp = build_mlp(80, (64,), 16)  # unseeded-draw: no rng
    mlp = nn.build_mlp(80, rng=None)  # unseeded-draw: a literal None by keyword
    layer = layer_from_config(meta["layers"][0])  # unseeded-draw: no rng
    layer = make_layer(meta)  # fine: an alias the rule does not follow
    other = nn.layer_from_config(meta, rng=None)  # unseeded-draw: by attribute
    net = Sequential.from_config(meta, rng)  # fine: the caller's choice
    mlp = build_mlp(80, (64,), 16, "relu", 0.0, False, rng)  # fine: positional
    mlp = build_mlp(80, **kwargs)  # fine: **kwargs may carry rng
    net = Sequential.from_state(meta, state)  # fine: stored weights, no init
    config = Config.from_config(meta)  # fine: another class
    return net, mlp, layer, other, config


class Config:
    @classmethod
    def from_config(cls, meta):
        return cls()
