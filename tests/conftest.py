import json

import pytest

from privauction import AuctionInstance, Dclef, Lef, ValueInterval
from privauction.verify import hardness_instance

UNIT = ValueInterval(0.0, 1.0)


@pytest.fixture
def unit_interval():
    return UNIT


@pytest.fixture
def hardness():
    return hardness_instance(1.0, 1.0)


@pytest.fixture
def instance_file(tmp_path):
    """Factory writing an instance JSON file and returning its path."""

    def write(data: dict, name: str = "instance.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    return write


def make_instance(weights, costs, budget, interval=UNIT) -> AuctionInstance:
    return AuctionInstance(
        tuple(float(w) for w in weights),
        tuple(float(v) for v in costs),
        float(budget),
        interval,
    )


def as_lef(dclef: Dclef) -> Lef:
    """The general estimator a `Dclef` stands for: float ``x`` and the same noise scale."""
    return Lef(dclef.instance, tuple(float(xi) for xi in dclef.x), dclef.sigma)
