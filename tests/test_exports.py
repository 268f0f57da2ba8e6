import pytest

import clusterlab
from clusterlab import distances, exceptions, projection


def test_every_export_resolves():
    assert len(set(clusterlab.__all__)) == len(clusterlab.__all__)
    assert [name for name in clusterlab.__all__ if not hasattr(clusterlab, name)] == []


@pytest.mark.parametrize("name", ["Projection2D", "pca_2d", "nearest_neighbor",
                                  "EmptyCandidateSetError"])
def test_removed_names_stay_removed(name):
    assert name not in clusterlab.__all__
    for module in (clusterlab, distances, exceptions, projection):
        assert not hasattr(module, name)
