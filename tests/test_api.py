import lrckit


def test_every_public_name_resolves_once():
    assert len(set(lrckit.__all__)) == len(lrckit.__all__)
    missing = [name for name in lrckit.__all__ if not hasattr(lrckit, name)]
    assert missing == []
    namespace: dict = {}
    exec("from lrckit import *", namespace)
    assert set(lrckit.__all__) <= set(namespace)
