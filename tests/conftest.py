import os

import numpy as np
import pytest

from sedfuse.core import ClassVocabulary


@pytest.fixture
def vocab4():
    return ClassVocabulary(("Cat", "Dog", "Dishes", "Speech"))


@pytest.fixture
def vocab10():
    return ClassVocabulary(tuple(f"event_{i:02d}" for i in range(10)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _open_fds() -> set[str] | None:
    """The fds open in this process, None where ``/proc`` does not list them."""
    try:
        return set(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


@pytest.fixture(autouse=True)
def nothing_left():
    """After each test: no child process is left unreaped, and no fd is open
    that was not open before the test."""
    before = _open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if before is not None:
        assert _open_fds() <= before
