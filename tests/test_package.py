import mpflow


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from mpflow import *", namespace)
    for name in mpflow.__all__:
        assert hasattr(mpflow, name), name
        assert namespace[name] is getattr(mpflow, name)
