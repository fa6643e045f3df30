import pytest

from aprings.annihilator import RootSpec, root_sum_set
from aprings.config import Limits, default_limits
from aprings.cyclotomic import MAX_CYCLOTOMIC_DEGREE
from aprings.errors import BoundExceeded


def test_defaults():
    limits = Limits()
    assert limits.max_group_order == 5040
    assert limits.max_carrier == 4096
    assert limits.max_summands == 8
    assert MAX_CYCLOTOMIC_DEGREE == 64  # a module constant, not a Limits field


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("APRINGS_MAX_SUMSET", "5")
    monkeypatch.setenv("APRINGS_MAX_CARRIER", "100")
    monkeypatch.setenv("APRINGS_MAX_GROUP_ORDER", "10")
    limits = default_limits()
    assert limits.max_sumset == 5
    assert limits.max_carrier == 100
    assert limits.max_group_order == 10


def test_env_override_caps_sum_sets(monkeypatch):
    monkeypatch.setenv("APRINGS_MAX_SUMSET", "5")
    with pytest.raises(BoundExceeded):
        root_sum_set(RootSpec.unity(8), 2)
