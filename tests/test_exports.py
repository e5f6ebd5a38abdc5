"""The package's public names."""

import vfso


def test_every_exported_name_resolves_once():
    assert len(vfso.__all__) == len(set(vfso.__all__))
    for name in vfso.__all__:
        assert hasattr(vfso, name), name
