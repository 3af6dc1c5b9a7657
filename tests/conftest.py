import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import minimaxlb as mx  # noqa: E402


@pytest.fixture(scope="session")
def gauss():
    return mx.get_model("gauss-location")

@pytest.fixture(scope="session")
def uniform_scale():
    return mx.get_model("uniform-scale")

@pytest.fixture(scope="session")
def uniform_location():
    return mx.get_model("uniform-location")

@pytest.fixture(scope="session")
def exp_rate():
    return mx.get_model("exp-rate")


# the reports below are shared session-wide: the free-pair-prior three-point
# search is the one genuinely slow computation in the suite.  Its 65 grid
# spacings' simplex rows only rank them, so their batched zoom stops at the
# joint zoom's first stencil step, 1/384; the winner's row alone is solved
# to 1e-11 and seeds the joint zoom, so the values are those of every row
# solved in full

@pytest.fixture(scope="session")
def three_point_uniform_free(uniform_scale):
    return mx.three_point_bound(uniform_scale)

@pytest.fixture(scope="session")
def three_point_gauss_half(gauss):
    return mx.three_point_bound(gauss, inner_prior="half")

@pytest.fixture(scope="session")
def three_point_exact(uniform_scale):
    return mx.three_point_exact_uniform()

@pytest.fixture(scope="session")
def moment_uniform_t1(uniform_scale):
    return mx.moment_two_point_bound(uniform_scale, 1.0)

@pytest.fixture(scope="session")
def moment_uniform_t2(uniform_scale):
    return mx.moment_two_point_bound(uniform_scale, 2.0)

@pytest.fixture(scope="session")
def local_uniform_mse(uniform_scale):
    return mx.local_two_point_bound(uniform_scale, mx.LossSpec.mse())

@pytest.fixture(scope="session")
def local_gauss_mse(gauss):
    return mx.local_two_point_bound(gauss, mx.LossSpec.mse())

@pytest.fixture(scope="session")
def nuisance_report():
    return mx.rotation_nuisance_bound()
