"""The package exports exactly what the subcommands and criteria use."""
import oscidec


def test_all_names_resolve_once():
    assert len(set(oscidec.__all__)) == len(oscidec.__all__)
    for name in oscidec.__all__:
        assert hasattr(oscidec, name), name


def test_removed_names_stay_removed():
    for name in ("pointer_robustness", "coupling_spectrum", "gaussian_overlap",
                 "log_gaussian_overlap", "evolve_exact",
                 "schmidt_log_negativity_pure", "SymplecticPropagator",
                 "propagator", "evolve", "evolve_branches"):
        assert not hasattr(oscidec, name), name
