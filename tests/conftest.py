import numpy as np
import pytest

from isci.geometry import build_partition
from isci.scene import default_scene
from isci.sensing import SensingModel, build_fingerprint_table
from tests.oracles import LOOP_LARGE, lattice_scene


@pytest.fixture(scope="session")
def scene():
    return default_scene()


@pytest.fixture(scope="session")
def partition(scene):
    return build_partition(scene)


@pytest.fixture(scope="session")
def sensing_model(scene):
    return SensingModel(scene)


@pytest.fixture(scope="session")
def table(scene, sensing_model):
    return build_fingerprint_table(scene, sensing_model)


@pytest.fixture(scope="session")
def loop_large():
    """The benchmark's loop-large room (10 m, a 5 x 5 LED lattice 1.4 m apart,
    0.05 m grid: K = 40 000, M = N = 25) as (scene, partition, sensing model,
    fingerprint table), built once for the tests that read it."""
    scene = lattice_scene(*LOOP_LARGE)
    model = SensingModel(scene)
    return scene, build_partition(scene), model, build_fingerprint_table(scene, model)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
