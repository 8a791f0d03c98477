import pytest

from hyperlie.genus_fields import catalog
from hyperlie.lambda_space import CurveModel, all_L, build_T, discriminant_R
from hyperlie.exactpoly import det_minor_expansion


@pytest.fixture(scope="session")
def catalogs():
    return {g: catalog(g) for g in (1, 2, 3)}


@pytest.fixture(scope="session")
def catalogs_zero():
    return {g: catalog(g, params="zero") for g in (1, 2, 3)}


@pytest.fixture(scope="session")
def models():
    return {g: CurveModel(g) for g in (1, 2, 3)}


@pytest.fixture(scope="session")
def lam_fields(models):
    return {g: all_L(build_T(models[g])) for g in (1, 2, 3)}


@pytest.fixture(scope="session")
def discriminants(models):
    return {g: discriminant_R(models[g]) for g in (1, 2, 3)}


@pytest.fixture(scope="session")
def detTs(models):
    return {g: det_minor_expansion(build_T(models[g])) for g in (1, 2, 3)}
