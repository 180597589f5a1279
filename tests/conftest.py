import numpy as np
import pytest

from pdext import exp_kernel, triangle_kernel, bspline_x_kernel
from pdext.mercer import NystromConfig, discretize


@pytest.fixture(scope="session")
def kexp():
    return exp_kernel()


@pytest.fixture(scope="session")
def ktri():
    return triangle_kernel()


@pytest.fixture(scope="session")
def kbsx4():
    return bspline_x_kernel(4)


@pytest.fixture(scope="session")
def dec_exp_400(kexp):
    return discretize(kexp, NystromConfig(400))


@pytest.fixture(scope="session")
def dec_exp_800(kexp):
    return discretize(kexp, NystromConfig(800))


@pytest.fixture(scope="session")
def dec_tri_400(ktri):
    return discretize(ktri, NystromConfig(400))


@pytest.fixture(scope="session")
def dec_tri_800(ktri):
    return discretize(ktri, NystromConfig(800))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def pytest_collection_modifyitems(items):
    # hypothesis's failure report imports libcst, which warns through
    # mypy_extensions; a mark applies after -W, so under -W error the
    # falsifying example is printed instead of an INTERNALERROR
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(
            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"))
