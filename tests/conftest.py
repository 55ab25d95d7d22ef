# Importing the package pins the BLAS thread pools (one thread unless
# MWCLAB_THREADS or an exported BLAS variable says otherwise); the pin
# acts only if it runs before numpy loads, so the import comes first.
import mwclab  # noqa: F401, I001

import numpy as np
import pytest

from mwclab.signmatrix import FamilySpec, build_sign_matrix


@pytest.fixture(scope="session")
def gold_80_511():
    return build_sign_matrix(FamilySpec("gold", m=80, n=9))


@pytest.fixture(scope="session")
def kasami_16_255():
    return build_sign_matrix(FamilySpec("kasami", m=16, n=8))


@pytest.fixture(scope="session")
def hadamard_80_512():
    return build_sign_matrix(FamilySpec("hadamard", m=80, M=512))


@pytest.fixture(scope="session")
def random_40_195():
    return build_sign_matrix(FamilySpec("random", m=40, M=195, seed=2))


def direct_cyclic_convolution(a, b):
    M = len(a)
    return np.array(
        [sum(int(a[n]) * int(b[(l - n) % M]) for n in range(M)) for l in range(M)]
    )


def direct_cyclic_crosscorrelation(a, b):
    M = len(a)
    return np.array(
        [sum(int(a[n]) * int(b[(n + l) % M]) for n in range(M)) for l in range(M)]
    )
