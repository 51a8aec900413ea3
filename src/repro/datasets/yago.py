"""YAGO-like scale-free knowledge-graph generator (Section 6.2's dataset).

The paper's real-KG experiments run on YAGO (≈4M vertices / 13M edges,
downloaded from the MPI archive).  Without network access we substitute
a synthetic KG that preserves the properties Figure 15 actually
exercises (README.md, *Semantics and resolved under-specifications*:
down-scaling):

* **scale-free topology** — YAGO, like all RDFS-structured KGs, is a
  scale-free network (Section 2); edges here attach preferentially to
  high-in-degree entities, producing the heavy-tailed degree profile
  (verified by a test on the degree Gini coefficient);
* **an RDFS class layer** — entities are typed against a class taxonomy
  (a subclass tree), because both INS's landmark selection and the
  Section 6.2 random-constraint generator are schema-driven;
* **a YAGO-flavoured relation vocabulary** — a few dozen labels with a
  Zipf-like frequency profile, so label constraints of size
  ``0.2·|𝕃| .. 0.8·|𝕃|`` behave as they do on the real data.

Scale is configurable; Figure 15's harness uses a few thousand entities
(the paper's 4M is out of reach for pure Python index construction —
the repro=3 calibration note).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph.builder import GraphBuilder
from repro.graph.labeled_graph import KnowledgeGraph
from repro.utils.rng import make_rng

__all__ = ["YagoConfig", "generate_yago_like", "YAGO_RELATIONS", "YAGO_CLASSES"]

#: Relation labels, most-frequent first (Zipf weights are rank-based).
YAGO_RELATIONS: tuple[str, ...] = (
    "yago:isLocatedIn",
    "yago:linksTo",
    "yago:isCitizenOf",
    "yago:wasBornIn",
    "yago:livesIn",
    "yago:actedIn",
    "yago:playsFor",
    "yago:worksAt",
    "yago:created",
    "yago:hasChild",
    "yago:isMarriedTo",
    "yago:influences",
    "yago:graduatedFrom",
    "yago:owns",
    "yago:directed",
    "yago:hasWonPrize",
    "yago:participatedIn",
    "yago:diedIn",
    "yago:isLeaderOf",
    "yago:wroteMusicFor",
)

#: ``(class, parent-or-None)`` — a small taxonomy tree.
YAGO_CLASSES: tuple[tuple[str, str | None], ...] = (
    ("yago:Entity", None),
    ("yago:Person", "yago:Entity"),
    ("yago:Artist", "yago:Person"),
    ("yago:Scientist", "yago:Person"),
    ("yago:Politician", "yago:Person"),
    ("yago:Athlete", "yago:Person"),
    ("yago:Place", "yago:Entity"),
    ("yago:City", "yago:Place"),
    ("yago:Country", "yago:Place"),
    ("yago:Organization", "yago:Entity"),
    ("yago:Company", "yago:Organization"),
    ("yago:University", "yago:Organization"),
    ("yago:Work", "yago:Entity"),
    ("yago:Movie", "yago:Work"),
    ("yago:Song", "yago:Work"),
)


@dataclass(frozen=True)
class YagoConfig:
    """Knobs of the YAGO-like generator."""

    num_entities: int = 2000
    #: Target edge count as a multiple of entities (YAGO: ≈ 3.2).
    density: float = 3.2
    #: Preferential-attachment strength: probability that an edge target
    #: is drawn from the degree-weighted pool instead of uniformly.
    attachment: float = 0.75
    #: Zipf exponent for relation-label frequencies.
    zipf_exponent: float = 1.1
    #: Leaf classes entities are typed with (weighted by rank).
    classes: tuple[tuple[str, str | None], ...] = YAGO_CLASSES
    relations: tuple[str, ...] = YAGO_RELATIONS


def generate_yago_like(
    config: YagoConfig | None = None,
    rng: int | random.Random | None = 0,
    name: str = "yago-like",
) -> KnowledgeGraph:
    """Generate a scale-free KG with an RDFS class layer."""
    cfg = config or YagoConfig()
    rng = make_rng(rng)
    builder = GraphBuilder(name)

    leaf_classes: list[str] = []
    for class_name, parent in cfg.classes:
        builder.declare_class(class_name)
        if parent is not None:
            builder.subclass(class_name, parent)
    children = {parent for _, parent in cfg.classes if parent is not None}
    leaf_classes = [c for c, _ in cfg.classes if c not in children]

    # Entities, typed by a rank-weighted leaf class.
    entities = [f"yago:e{i}" for i in range(cfg.num_entities)]
    class_weights = [1.0 / (rank + 1) for rank in range(len(leaf_classes))]
    for entity in entities:
        cls = rng.choices(leaf_classes, weights=class_weights)[0]
        builder.typed(entity, cls)

    # Relation edges with preferential attachment on the target side.
    relation_weights = [
        1.0 / (rank + 1) ** cfg.zipf_exponent for rank in range(len(cfg.relations))
    ]
    target_edges = int(cfg.density * cfg.num_entities)
    # The degree-weighted pool: every time a vertex gains an in-edge it
    # is appended, so sampling from the pool is sampling ∝ in-degree.
    pool: list[str] = list(entities)
    emitted = 0
    attempts = 0
    max_attempts = target_edges * 20
    while emitted < target_edges and attempts < max_attempts:
        attempts += 1
        source = rng.choice(entities)
        if rng.random() < cfg.attachment:
            target = rng.choice(pool)
        else:
            target = rng.choice(entities)
        if target == source:
            continue
        relation = rng.choices(cfg.relations, weights=relation_weights)[0]
        if builder.graph.has_edge_named(source, relation, target):
            continue
        builder.edge(source, relation, target)
        pool.append(target)
        emitted += 1

    return builder.build()
