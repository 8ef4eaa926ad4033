import sys

import pytest

from quadgenus.embeddings import Embedding
from quadgenus.graphs import Graph


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(real)`` replaces every quadgenus module's binding of
    ``real`` with a wrapper that records each call's arguments, and
    returns the record; monkeypatch restores the bindings."""
    def count(real) -> list:
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "quadgenus" or name.startswith("quadgenus."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, counting)
        return calls

    return count


def _assemble_copies(base: Embedding, mirrored: list[bool],
                     coords: list) -> Embedding:
    nb = base.graph.n
    rotation: list[tuple[int, ...]] = []
    labels: list[tuple] = []
    for t, flip in enumerate(mirrored):
        off = t * nb
        for v in range(nb):
            rot = base.rotation[v]
            if flip:
                rot = tuple(reversed(rot))
            rotation.append(tuple(x + off for x in rot))
            labels.append(base.graph.label_of(v) + (coords[t],))
    adj = tuple(tuple(sorted(rot)) for rot in rotation)
    graph = Graph(nb * len(mirrored), adj, tuple(labels))
    return Embedding(graph, tuple(rotation))


@pytest.fixture
def assemble_copies():
    """``assemble_copies(base, mirrored, coords)`` is the disjoint union
    of copies of the Embedding ``base`` in contiguous index blocks, one
    per entry of ``mirrored``: copy t's vertex v is t * n_base + v, its
    rotation is v's reversed where mirrored[t], and its label gains
    coords[t] as a final coordinate."""
    return _assemble_copies
