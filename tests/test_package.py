"""The package namespace: what `from spectral_delta import *` exports."""

import types

import spectral_delta


def test_all_matches_the_public_namespace():
    missing = [name for name in spectral_delta.__all__
               if not hasattr(spectral_delta, name)]
    assert missing == []
    public = {name for name, obj in vars(spectral_delta).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert public == set(spectral_delta.__all__)
