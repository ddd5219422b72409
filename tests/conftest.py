import numpy as np
import pytest


def plain(tree):
    """``tree`` with each array leaf as the nested lists ``json`` reads and writes."""
    if isinstance(tree, dict):
        return {key: plain(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [plain(value) for value in tree]
    return tree.tolist() if isinstance(tree, np.ndarray) else tree


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
