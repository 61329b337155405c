import marginsparse


def test_every_exported_name_resolves():
    missing = [name for name in marginsparse.__all__ if not hasattr(marginsparse, name)]
    assert missing == []
    assert len(set(marginsparse.__all__)) == len(marginsparse.__all__)


def test_star_import():
    namespace = {}
    exec("from marginsparse import *", namespace)
    assert set(marginsparse.__all__) <= set(namespace)
