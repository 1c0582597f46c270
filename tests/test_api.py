import inspect

import eqfid


def test_all_lists_every_public_name():
    # CI's "Code size" step counts __all__, so it must match the imports.
    public = {
        name
        for name, obj in vars(eqfid).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(eqfid.__all__) == sorted(public)
    assert len(eqfid.__all__) == len(set(eqfid.__all__))
