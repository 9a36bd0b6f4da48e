import os
import pathlib

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "deterministic",
    deadline=None,
    derandomize=True,
    max_examples=60,
)
hypothesis.settings.load_profile("deterministic")


@pytest.fixture
def src_env():
    """Environment for a subprocess that imports this checkout's src/."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
