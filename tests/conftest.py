import pytest

from polycert.families import tight_quotient_presentation
from polycert.realize import realize
from polycert.verify import SggiSpec, certify


def pytest_addoption(parser):
    parser.addoption("--write-golden", action="store_true",
                     help="rewrite tests/golden.json from this run's outputs, then check it")


@pytest.fixture(scope="session")
def tight44():
    """The order-32 tight group of type {4,4}, realized once for the session."""
    p = tight_quotient_presentation((4, 4))
    return p, realize(p), certify(SggiSpec(p, (4, 4)))
