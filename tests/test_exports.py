"""The package's public names: each export resolves, and none is listed twice."""

import poroweights


def test_every_export_resolves():
    missing = [name for name in poroweights.__all__ if not hasattr(poroweights, name)]
    assert missing == []


def test_no_export_listed_twice():
    assert len(poroweights.__all__) == len(set(poroweights.__all__))
