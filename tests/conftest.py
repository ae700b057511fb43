import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# interpreters the tests start import this checkout too, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))

from pdmorse import WEYL, get_molecule, reduce


@pytest.fixture(scope="session")
def h2():
    return get_molecule("H2")


@pytest.fixture(scope="session")
def lih():
    return get_molecule("LiH")


@pytest.fixture(scope="session")
def h2_eta02(h2):
    return reduce(h2, 0.2, WEYL)


@pytest.fixture(scope="session")
def h2_eta0(h2):
    return reduce(h2, 0.0, WEYL)
