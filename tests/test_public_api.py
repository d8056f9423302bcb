import types

import eps_planner


def test_every_exported_name_resolves():
    missing = [name for name in eps_planner.__all__ if not hasattr(eps_planner, name)]
    assert missing == []
    assert len(set(eps_planner.__all__)) == len(eps_planner.__all__)


def test_every_public_imported_name_is_exported():
    public = {
        name
        for name, value in vars(eps_planner).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(eps_planner.__all__) == set()
