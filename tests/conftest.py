from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import minicorpus  # noqa: E402

from deidkit import corpus  # noqa: E402


@pytest.fixture(scope="session")
def fixture_paths(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("minicorpus")
    return minicorpus.materialize(root)


@pytest.fixture(scope="session")
def mini_docs(fixture_paths) -> dict[str, corpus.Document]:
    return corpus.read_documents(fixture_paths["corpus"])


@pytest.fixture(scope="session")
def mini_gold(fixture_paths) -> dict[str, list[corpus.Span]]:
    return corpus.read_standoff(fixture_paths["gold"])


class ScriptedClient:
    """Fake chat client answering from a callable; records every call."""

    def __init__(self, responder):
        self.responder = responder
        self.calls: list[list] = []

    def complete(self, messages, max_tokens=None):
        self.calls.append(list(messages))
        return self.responder(messages)


@pytest.fixture
def scripted_client():
    return ScriptedClient
