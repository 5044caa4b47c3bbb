"""The package's public surface."""
import dataclasses

import slowcal_lab
from slowcal_lab.algorithms import ROUND_COLUMNS
from slowcal_lab.metrics import RoundMetrics


def test_every_exported_name_resolves():
    missing = [name for name in slowcal_lab.__all__ if not hasattr(slowcal_lab, name)]
    assert missing == []


def test_round_columns_are_the_round_metrics_value_fields_in_order():
    # Trajectory.rounds unpacks rows of values into RoundMetrics after its
    # round and t, and runs.csv writes them under these column names
    names = [field.name for field in dataclasses.fields(RoundMetrics)]
    assert names[:2] == ["round", "t"] and names[-1] == "diverged"
    assert tuple(names[2:-1]) == ROUND_COLUMNS
