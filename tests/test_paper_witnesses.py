"""The synthetic witness scores are the first hits of the search their
module docstring describes, so the literals can be re-derived."""

import pytest

from paper_witnesses import PAPER_TALLIES, WITNESSES


def _first_witness(fux, mystic, fux_tally, mystic_tally):
    """Lexicographic DFS for an interval sequence with both tallies, no self-steps."""
    size = len(fux.counts)
    left = {"fux": dict(zip(range(6), fux_tally)), "mystic": dict(zip((0, 1, 2, 4), mystic_tally))}
    path, dead = [], set()

    def extend(steps):
        if steps == 0:
            return True
        key = (path[-1], *left["fux"].values(), *left["mystic"].values())
        if key not in dead:
            for nxt in range(size):
                f, m = fux.counts[path[-1]][nxt], mystic.counts[path[-1]][nxt]
                if nxt != path[-1] and left["fux"].get(f) and left["mystic"].get(m):
                    left["fux"][f] -= 1
                    left["mystic"][m] -= 1
                    path.append(nxt)
                    if extend(steps - 1):
                        return True
                    path.pop()
                    left["fux"][f] += 1
                    left["mystic"][m] += 1
            dead.add(key)
        return False

    for start in range(size):
        path[:] = [start]
        if extend(sum(fux_tally)):
            return path
    return None


@pytest.mark.parametrize("passage", [1, 2])
def test_witness_is_the_first_search_hit(fux_world, mystic_world, passage):
    tallies = {name: tally for p, name, _, tally, *_ in PAPER_TALLIES if p == passage}
    path = _first_witness(fux_world, mystic_world, tallies["fux"], tallies["mystic"])
    assert [(60 + i // 12, 60 + i // 12 + i % 12) for i in path] == list(WITNESSES[passage])
