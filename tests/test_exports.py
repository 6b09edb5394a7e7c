import inspect

import heptalab


def test_all_names_resolve_and_are_not_modules():
    assert len(heptalab.__all__) == len(set(heptalab.__all__))
    for name in heptalab.__all__:
        obj = getattr(heptalab, name)
        assert not inspect.ismodule(obj), name


def test_budget_is_exported():
    assert heptalab.Budget is heptalab.detect.Budget
    assert "Budget" in heptalab.__all__


def test_every_public_import_is_exported():
    public = {
        name
        for name, obj in vars(heptalab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == set(heptalab.__all__)
