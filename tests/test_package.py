import mpflow


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from mpflow import *", namespace)
    for name in mpflow.__all__:
        assert hasattr(mpflow, name), name
        assert namespace[name] is getattr(mpflow, name)


def test_importing_a_submodule_by_name_gives_the_module():
    # `import a.b as c` reads the package attribute b, so no export may shadow a module
    import mpflow.serialize as se

    assert type(se) is type(mpflow) and se.__name__ == "mpflow.serialize"
    assert se.load_net is mpflow.load_net
    assert "serialize" not in mpflow.__all__
