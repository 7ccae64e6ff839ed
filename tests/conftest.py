import os
import threading

import pytest

from rogetsim import load

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
FIXTURE_PATH = os.path.join(DATA_DIR, "roget_fixture.rt")

# One designated fixture pair per path-length tier, taken from the tier
# examples in the distance definition.
TIER_PAIRS = [
    (0, "journey's end", "terminus"),
    (2, "devotion", "abnormal affection"),
    (4, "popular misconception", "glaring error"),
    (6, "individual", "lonely"),
    (8, "finance", "apply for a loan"),
    (10, "life expectancy", "herbalize"),
    (12, "Creirwy (love)", "inspired"),
    (14, "translucid", "blind eye"),
    (16, "nag", "like greased lightning"),
]


def data_path(name):
    return os.path.join(DATA_DIR, name)


@pytest.fixture(scope="session")
def thesaurus():
    return load(FIXTURE_PATH)


@pytest.fixture(scope="session")
def fixture_text():
    with open(FIXTURE_PATH, encoding="utf-8") as handle:
        return handle.read()


def read_from_pipe(path, data, read):
    """``read(path)`` on a new named pipe that a writer fills with ``data``.

    Returns what ``read`` returns or raises.  A reader that opens the pipe
    a second time would wait for a writer forever, so the read runs in a
    thread and the test fails after 20 seconds instead of hanging.
    """
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes on this platform")
    path = str(path)
    os.mkfifo(path)

    def write():
        with open(path, "wb") as handle:
            handle.write(data)

    outcome = {}

    def call():
        try:
            outcome["value"] = read(path)
        except Exception as exc:  # re-raised in the test's thread
            outcome["error"] = exc

    threads = [threading.Thread(target=f, daemon=True) for f in (write, call)]
    for thread in threads:
        thread.start()
    threads[1].join(20)
    assert not threads[1].is_alive(), "the pipe was opened a second time"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]
