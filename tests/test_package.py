"""The package's public surface."""
import slowcal_lab


def test_every_exported_name_resolves():
    missing = [name for name in slowcal_lab.__all__ if not hasattr(slowcal_lab, name)]
    assert missing == []

