"""The public API's size."""

import netinfluence


def test_public_api_has_at_most_41_names():
    # New entry points replace old ones rather than pile up beside them.
    assert len(netinfluence.__all__) <= 41
    assert len(set(netinfluence.__all__)) == len(netinfluence.__all__)
    assert all(hasattr(netinfluence, name) for name in netinfluence.__all__)
