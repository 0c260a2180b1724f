import spanlink


def test_every_exported_name_resolves():
    assert [name for name in spanlink.__all__
            if not hasattr(spanlink, name)] == []
    assert len(set(spanlink.__all__)) == len(spanlink.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spanlink import *", namespace)
    assert set(spanlink.__all__) <= set(namespace)
