"""GCR&M winners pinned byte-for-byte (``golden/gcrm_winners.json``).

The entries were recorded with the reference construction steps (the
straightforward phase 1, matching and full re-costing that
``tests/patterns/gcrm_reference.py`` keeps) before GCR&M was reduced to
its single incremental path.  Production must reproduce every one: the
grid's sha256, ``cost.hex()``, the winning seed, the pattern size ``r``
and, for searches, how many tasks the search evaluated.

* ``search`` — ``gcrm_search(P, seeds=range(20), jobs=1)``;
* ``search_exhaustive`` — ``gcrm_search(P, seeds=range(5),
  max_factor=3.0, seed=1234, prune=False)`` (SeedSequence spawn keys);
* ``hier`` — ``gcrm_hier`` at the smallest feasible ``r`` for
  ``(P, ranks_per_node)`` and the integer seed ``seed_arg``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.patterns.gcrm import feasible_sizes, gcrm_hier, gcrm_search
from repro.runtime.topology import Topology

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "gcrm_winners.json").read_text())


def _seed(seed):
    return list(seed) if isinstance(seed, tuple) else seed


def _check(res, entry):
    assert res.pattern.grid.shape[0] == entry["r"]
    assert (hashlib.sha256(res.pattern.grid.tobytes()).hexdigest()
            == entry["grid_sha256"])
    assert res.cost.hex() == entry["cost_hex"]
    assert _seed(res.seed) == entry["seed"]
    if "n_tasks_evaluated" in entry:
        assert res.report.n_tasks_evaluated == entry["n_tasks_evaluated"]


@pytest.mark.parametrize("entry", GOLDEN["search"],
                         ids=lambda e: f"P{e['P']}")
def test_search_winner_pinned(entry):
    _check(gcrm_search(entry["P"], seeds=range(20), jobs=1), entry)


@pytest.mark.parametrize("entry", GOLDEN["search_exhaustive"],
                         ids=lambda e: f"P{e['P']}")
def test_exhaustive_search_winner_pinned(entry):
    res = gcrm_search(entry["P"], seeds=range(5), max_factor=3.0, seed=1234,
                      prune=False)
    _check(res, entry)


@pytest.mark.parametrize("entry", GOLDEN["hier"],
                         ids=lambda e: f"P{e['P']}-rpn{e['rpn']}-s{e['seed_arg']}")
def test_hier_construction_pinned(entry):
    P = entry["P"]
    topo = Topology(nranks=P, ranks_per_node=entry["rpn"])
    res = gcrm_hier(P, feasible_sizes(P)[0], topo, seed=entry["seed_arg"])
    _check(res, entry)


def test_golden_covers_the_recorded_cases():
    assert [e["P"] for e in GOLDEN["search"]] == [7, 12, 23, 31, 35]
    assert [e["P"] for e in GOLDEN["search_exhaustive"]] == [23, 31, 35]
    assert len(GOLDEN["hier"]) == 6
