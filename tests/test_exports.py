"""The package's export list: what ``from bddcheck import *`` binds."""

import bddcheck


def test_star_import_binds_each_listed_name_once():
    names = bddcheck.__all__
    assert len(names) == len(set(names))
    namespace = {}
    # a stale entry makes the star import itself raise AttributeError
    exec("from bddcheck import *", namespace)
    for name in names:
        assert namespace[name] is getattr(bddcheck, name)
