"""The benchmark's workloads: databases, traffic shapes, demand streams.

Every database comes from the repository's public builders with fixed
builder seeds, so server and load generator build the same object set
independently.  The workload seed only drives the demand sequence, which
the load generator produces itself; the server sees generated frames
and nothing else.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Sequence, Tuple


def build_database(name: str):
    """``(database, catalog)`` of one of the benchmark's databases."""
    from repro.workloads import build_cells_database

    if name == "cells":
        # 24 objects: 8 cells whose 32 robots each reference 3 of 16
        # shared effectors, so an X on a cell propagates onto effectors
        # other cells' robots use
        return build_cells_database(
            n_cells=8, n_objects=4, n_robots=4, n_effectors=16, refs_per_robot=3
        )
    raise ValueError("unknown benchmark database %r" % (name,))


#: served workloads: the traffic each connection generates
SERVED: Dict[str, Dict] = {
    "binary-cells-hot": dict(
        database="cells",
        connections=2,
        # 16 in flight already saturates the server; at 32 the two
        # pipelines fall into alternating regimes and p99 swings run to run
        depth=16,
        slots=1,
        relations=("effectors",),
        demands=4,
        write_ratio=0.0,
    ),
    "binary-cells-contended": dict(
        database="cells",
        connections=2,
        depth=8,
        slots=8,
        relations=("cells", "effectors"),
        demands=3,
        write_ratio=0.4,
    ),
}

#: the in-process simulator workload
SIM = "sim-cells-query"

NAMES = tuple(SERVED) + (SIM,)

#: where traced passes write their spans
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def spans_path(workload: str) -> str:
    """The file a traced pass of ``workload`` writes its spans to."""
    return os.path.join(OUT, "spans-%s.tsv" % workload)


def object_paths(name: str, relations: Sequence[str]) -> List[str]:
    """Slash-joined object resource paths of ``relations`` in database
    ``name``, sorted."""
    from repro.graphs.units import object_resource

    database, catalog = build_database(name)
    paths = []
    for relation in relations:
        for obj in database.relation(relation):
            resource = object_resource(catalog, relation, obj.key)
            paths.append("/".join(str(part) for part in resource))
    return sorted(paths)


class DemandStream:
    """A deterministic stream of transactions for one client stream.

    Each transaction is ``demands`` lock demands ``(verb, path)`` on
    distinct objects; a ``write_ratio`` share are XLOCK, the rest SLOCK.
    The stream is a pure function of ``(seed, stream)``.
    """

    def __init__(
        self,
        paths: Sequence[str],
        seed: int,
        stream: int,
        demands: int,
        write_ratio: float,
    ):
        if demands > len(paths):
            raise ValueError("more demands per transaction than objects")
        self.paths = list(paths)
        self.demands = demands
        self.write_ratio = write_ratio
        self.rng = random.Random(seed * 1_000_003 + stream)

    def next_txn(self) -> List[Tuple[str, str]]:
        chosen = self.rng.sample(self.paths, self.demands)
        return [
            ("XLOCK" if self.rng.random() < self.write_ratio else "SLOCK", path)
            for path in chosen
        ]
