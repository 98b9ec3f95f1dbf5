"""The package's public names."""

import qcfrob


def test_every_exported_name_resolves():
    missing = [name for name in qcfrob.__all__ if not hasattr(qcfrob, name)]
    assert not missing
    assert len(set(qcfrob.__all__)) == len(qcfrob.__all__)
