import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True, scope="session")
def no_process_left():
    """At the end of the session no forest worker is alive, and no other
    child of this process is left unreaped."""
    yield
    levelwise = sys.modules.get("stockalloc._levelwise")
    if levelwise is not None:
        levelwise.close_workers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
