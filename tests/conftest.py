"""Fixtures shared by every test module."""

import pytest

from fexpsmc import simulate


@pytest.fixture(autouse=True)
def fresh_draw_plans():
    """Each test starts and ends with no cached draw plan, so a test that
    monkeypatches ``simulate.model_autocov`` sees its patch used and leaves
    no plan built from it behind."""
    simulate._PLANS.clear()
    yield
    simulate._PLANS.clear()
