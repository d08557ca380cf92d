import pytest

from simplexalg import diffops, jacobi, verify

# the per-process caches of n-independent operators, verdicts, Jacobi
# factors and (d, gamma) stores, all of OPERATOR_CACHE_SIZE
CACHES = (
    diffops.generator_table,
    verify._kd_verdict,
    verify._f_verdict,
    verify._asymmetric_generator,
    verify.gamma_store,
    jacobi._factor_table,
)


@pytest.fixture
def fresh_caches():
    """Empty caches before and after the test, for tests that monkeypatch a
    function a cache calls: no verdict from before the patch is reused, and
    none computed under it outlives the test."""
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_caches_under_monkeypatch(request):
    """Every test that monkeypatches runs with fresh caches, so that what it
    patches can neither read a cached verdict nor leave one behind."""
    if "monkeypatch" in request.fixturenames:
        request.getfixturevalue("fresh_caches")
