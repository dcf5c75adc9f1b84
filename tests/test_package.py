import expnet


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted would break only
    # `from expnet import *`
    missing = [name for name in expnet.__all__ if not hasattr(expnet, name)]
    assert not missing
    assert len(set(expnet.__all__)) == len(expnet.__all__)
