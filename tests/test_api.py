import importlib

import diophlab

# second copies removed in favour of the paths that experiments run
DELETED = {
    "problem": ("Annulus", "domain_volume_annulus", "norm_eval"),
    "lattice": ("DiagonalFlow",),
    "counting": ("count_block",),
    "cumulants": ("empirical_cumulant",),
}


def test_public_names_resolve_and_deleted_ones_are_gone():
    for name in diophlab.__all__:
        assert getattr(diophlab, name) is not None, name
    for module, names in DELETED.items():
        mod = importlib.import_module(f"diophlab.{module}")
        for name in names:
            assert name not in diophlab.__all__
            assert not hasattr(diophlab, name)
            assert not hasattr(mod, name)
