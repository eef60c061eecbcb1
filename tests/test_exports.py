"""The package's export list names only what the package defines."""

import polycert


def test_every_exported_name_resolves():
    missing = [name for name in polycert.__all__ if not hasattr(polycert, name)]
    assert missing == []
    assert len(set(polycert.__all__)) == len(polycert.__all__)
