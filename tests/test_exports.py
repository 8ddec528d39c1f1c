"""The package's export list names each public object once, and each one exists."""

import iqlin


def test_all_names_resolve_once():
    missing = [name for name in iqlin.__all__ if not hasattr(iqlin, name)]
    assert missing == []
    assert len(set(iqlin.__all__)) == len(iqlin.__all__)
