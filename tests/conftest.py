import numpy as np
import pytest

from isci.geometry import build_partition
from isci.scene import default_scene
from isci.sensing import SensingModel, build_fingerprint_table


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


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
