import json
from pathlib import Path

import numpy as np
import pytest

from banachscale.kimura import (
    CorrelationHierarchy,
    DiscreteSpace,
    KimuraModel,
    KimuraProblem,
    RateData,
)
from banachscale.scalecore import ScaleWindow

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def desk_window(T=1.0):
    return ScaleWindow(0.0, 0.5, 1.0, r=1.0, T=T)


@pytest.fixture(scope="session")
def epistatic_model():
    win = desk_window()
    return KimuraModel(DiscreteSpace.uniform(4), RateData.constant(4, 1.0, 0.2, 0.5), 3, win)


@pytest.fixture(scope="session")
def epistatic_k0(epistatic_model):
    return CorrelationHierarchy.poisson(4, 3, np.full(4, 0.5))


@pytest.fixture(scope="session")
def epistatic_problem(epistatic_model, epistatic_k0):
    return KimuraProblem.build(epistatic_model, epistatic_k0)


@pytest.fixture(scope="session")
def free_model():
    win = desk_window()
    return KimuraModel(DiscreteSpace.uniform(3), RateData.constant(3, 0.8, 0.0, 0.4), 3, win)


@pytest.fixture(scope="session")
def free_k0(free_model):
    return CorrelationHierarchy.poisson(3, 3, np.full(3, 0.5))


@pytest.fixture(scope="session")
def dead_model():
    win = desk_window()
    return KimuraModel(DiscreteSpace.uniform(3), RateData.constant(3, 0.0, 0.0, 0.0), 3, win)


@pytest.fixture
def shipped_configs():
    # read for each test: a test may edit its configs without touching another's
    return {
        name: json.loads((CONFIG_DIR / f"{name}.json").read_text())
        for name in ("desk-epistatic", "desk-free", "desk-smooth")
    }
