"""The package's public names are exactly its library modules' exports."""

import types

import kineticmf
from kineticmf import (control_opt, drift, experiments, meanfield, pdeode,
                       phase_space, sde, wasserstein)

_LIBRARY = (phase_space, wasserstein, drift, sde, meanfield, pdeode,
            control_opt, experiments)


def test_public_names_are_the_union_of_the_module_exports():
    declared = [name for module in _LIBRARY for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is exported twice"
    public = {name for name, value in vars(kineticmf).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(declared)
    assert sorted(kineticmf.__all__) == sorted(declared)


def test_every_exported_name_resolves_to_its_module_object():
    for module in _LIBRARY:
        for name in module.__all__:
            assert getattr(kineticmf, name) is getattr(module, name), name
