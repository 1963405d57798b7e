import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from feemarket import MechanismParams, Scenario, Transaction


@pytest.fixture
def std_params() -> MechanismParams:
    return MechanismParams(B=100.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)


@pytest.fixture
def tiny_scenario() -> Scenario:
    return Scenario(
        transactions=[
            Transaction(id=0, arrival=1, size=(50,), unit_value=5.0),
            Transaction(id=1, arrival=1, size=(60,), unit_value=3.0),
            Transaction(id=2, arrival=2, size=(100,), unit_value=2.0),
        ],
    )
