"""Shared fixtures: desk-scale network shapes, seeded random bundles and tables."""
import numpy as np
import pytest

from diracdelta.bundle import random_bundle
from diracdelta.net import NetworkSpec
from diracdelta.quant import LayerQuantParams, NetworkQuantParams, build_threshold_table
from diracdelta.tensor import FeatureMap


def make_tiny_spec(**overrides) -> NetworkSpec:
    """One-stage, one-repeat network small enough to run in milliseconds."""
    base = dict(
        input_size=16,
        input_channels=3,
        stem_channels=(4, 8),
        stage_channels=(16,),
        stage_repeats=(1,),
        conv5_channels=32,
        num_classes=10,
    )
    base.update(overrides)
    return NetworkSpec(**base)


def make_two_stage_spec() -> NetworkSpec:
    return NetworkSpec(
        input_size=32,
        input_channels=3,
        stem_channels=(4, 8),
        stage_channels=(16, 32),
        stage_repeats=(1, 2),
        conv5_channels=64,
        num_classes=12,
    )


def make_three_stage_spec() -> NetworkSpec:
    # Its middle stage has no basic block, and its late convs read maps of two
    # rows or fewer that span more than one 32-channel input tile
    # (s3d_res_conv2 reads 2x2x40, s4d_res_conv1 2x2x40).
    return NetworkSpec(32, 3, (6, 10), (20, 40, 80), (1, 0, 1), 50, 11)


def random_input(spec: NetworkSpec, seed: int) -> FeatureMap:
    rng = np.random.default_rng(seed)
    arr = rng.integers(
        0, 16, size=(spec.input_size, spec.input_size, spec.input_channels), dtype=np.uint8
    )
    return FeatureMap.from_array(arr)


def threshold_table(rng=None):
    """The table of a layer with weight scale 1/15 at s = 1.

    Its alpha is 1, which puts threshold i at 15 i - 7, or a draw from
    [0.5, 1.5) when ``rng`` is given.
    """
    alpha = 1.0 if rng is None else float(rng.uniform(0.5, 1.5))
    return build_threshold_table(LayerQuantParams(alpha=alpha, weight_scale=1 / 15),
                                 NetworkQuantParams(s=1.0))


def tree_bytes(root) -> dict:
    """The bytes of every file in a directory, by name."""
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture
def quant_params() -> NetworkQuantParams:
    return NetworkQuantParams(s=1.0)


@pytest.fixture
def tiny_spec() -> NetworkSpec:
    return make_tiny_spec()


@pytest.fixture
def tiny_bundle(tiny_spec, quant_params):
    return random_bundle(tiny_spec, quant_params, seed=11)
