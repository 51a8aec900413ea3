"""LUBM-like synthetic knowledge-graph generator (Section 6.1's datasets).

The paper generates D0–D5 with the Lehigh University Benchmark's UBA
tool (millions of vertices).  This pure-Python substitute emits the same
university-domain structure at a configurable scale with three fidelity
goals (README.md, *Semantics and resolved under-specifications*:
down-scaling):

1. **Vocabulary** — exactly the ub: classes/properties the Table 3
   constraints S1–S5 mention, so the constraint SPARQL runs verbatim;
2. **Selectivity ratios** — with the default :class:`LubmConfig`:
   ``|V(S2)| ≈ 0.5·|V(S1)|`` (half the research-interest holders are
   associate professors), ``|V(S4)| ≈ |V(S1)|`` (one ``GraduateStudent4``
   and on average one ``Research12`` holder per department),
   ``|V(S3)| ≫ |V(S1)|`` (every undergraduate), ``|V(S5)| = 1``
   (a single professor's email);
3. **Reachability richness** — LUBM's edge directions alone make most
   vertices sinks; like the RDF materialisations LUBM ships (which
   declare inverse properties), the generator emits ``ub:hasAlumnus``
   (university → person, LUBM's declared inverse of the degree
   properties), closing person → department → university → person cycles
   so that label-constrained paths of meaningful length exist.

Determinism: the same ``(departments, seed, config)`` triple always
yields the identical graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets.lubm import ontology as ub
from repro.graph.builder import GraphBuilder
from repro.graph.labeled_graph import KnowledgeGraph
from repro.utils.rng import make_rng

__all__ = ["LubmConfig", "generate_lubm", "generate_dataset", "SCALED_DATASETS"]

#: Scaled-down analogues of the paper's Table 2 datasets.  The paper's
#: D1–D5 grow linearly (3.7M → 18.9M vertices); these grow linearly in
#: departments (≈1.2k → 4.7k vertices).  D0 is the small
#: indexing-comparison dataset.
SCALED_DATASETS: dict[str, int] = {
    "D0": 2,
    "D1": 8,
    "D2": 14,
    "D3": 20,
    "D4": 26,
    "D5": 32,
}


@dataclass(frozen=True)
class LubmConfig:
    """Per-department population (defaults tuned for the S1–S5 ratios)."""

    full_professors: int = 4
    associate_professors: int = 8
    assistant_professors: int = 3
    lecturers: int = 1
    undergraduates: int = 40
    graduates: int = 9
    courses: int = 12
    graduate_courses: int = 6
    publications: int = 15
    research_groups: int = 4
    #: Research-topic pool size.  Equal to the faculty count per
    #: department so that ``|V(S1)| ≈ departments ≈ |V(S4)|``.
    research_topics: int = 16
    departments_per_university: int = 4
    #: Courses each undergraduate takes (inclusive range).
    undergrad_courses: tuple[int, int] = (2, 4)
    #: Graduate courses each graduate takes (inclusive range).
    grad_courses: tuple[int, int] = (1, 3)
    #: Authors per publication (inclusive range).
    authors: tuple[int, int] = (1, 3)
    #: Fraction of all people each university links via ub:hasAlumnus —
    #: the inverse-degree edges that close cross-department cycles.  At
    #: paper scale universities accumulate thousands of alumni; keeping
    #: the count proportional preserves that connectivity when scaled
    #: down (label-constrained closures must be able to grow large, or
    #: every Section 6.1.1 query collapses to a trivial false).
    alumni_fraction: float = 0.15

    @property
    def faculty(self) -> int:
        """Faculty per department."""
        return (
            self.full_professors
            + self.associate_professors
            + self.assistant_professors
            + self.lecturers
        )


def generate_dataset(
    name: str,
    rng: int | random.Random | None = 0,
    config: LubmConfig | None = None,
) -> KnowledgeGraph:
    """Generate one of the scaled D0–D5 datasets by name."""
    departments = SCALED_DATASETS[name]
    return generate_lubm(departments, rng=rng, config=config, name=name)


def generate_lubm(
    departments: int,
    rng: int | random.Random | None = 0,
    config: LubmConfig | None = None,
    name: str | None = None,
) -> KnowledgeGraph:
    """Generate a LUBM-like KG with the given number of departments."""
    cfg = config or LubmConfig()
    rng = make_rng(rng)
    builder = GraphBuilder(name or f"lubm-{departments}d")
    _declare_ontology(builder)

    universities = max(1, -(-departments // cfg.departments_per_university))
    university_names = [f"University{u}" for u in range(universities)]
    for uni in university_names:
        builder.typed(uni, ub.UNIVERSITY)

    all_people: list[str] = []
    department_names: list[str] = []
    for dept_index in range(departments):
        u = dept_index // cfg.departments_per_university
        d = dept_index % cfg.departments_per_university
        dept = f"Department{d}.University{u}"
        department_names.append(dept)
        people = _generate_department(
            builder, rng, cfg, dept, university_names[u], university_names, d, u
        )
        all_people.extend(people)

    # Universities link back to people (ub:hasAlumnus — LUBM's declared
    # inverse of the degree properties), closing cross-department cycles.
    alumni_count = max(3, int(cfg.alumni_fraction * len(all_people)))
    for uni in university_names:
        for person in rng.sample(all_people, min(alumni_count, len(all_people))):
            builder.edge(uni, "ub:hasAlumnus", person)

    return builder.build()


def _declare_ontology(builder: GraphBuilder) -> None:
    for cls in ub.ALL_CLASSES:
        builder.declare_class(cls)
    for subclass, superclass in ub.CLASS_HIERARCHY:
        builder.subclass(subclass, superclass)
    for prop, (domain, range_) in ub.PROPERTIES.items():
        if domain is not None:
            builder.domain(prop, domain)
        if range_ is not None:
            builder.range(prop, range_)


def _generate_department(
    builder: GraphBuilder,
    rng: random.Random,
    cfg: LubmConfig,
    dept: str,
    university: str,
    all_universities: list[str],
    d: int,
    u: int,
) -> list[str]:
    """Emit one department; returns the people created (for alumni links)."""
    builder.typed(dept, ub.DEPARTMENT)
    builder.edge(dept, ub.P_SUB_ORGANIZATION_OF, university)

    for i in range(cfg.research_groups):
        group = f"{dept}/ResearchGroup{i}"
        builder.typed(group, ub.RESEARCH_GROUP)
        builder.edge(group, ub.P_SUB_ORGANIZATION_OF, dept)

    courses = [f"{dept}/Course{i}" for i in range(cfg.courses)]
    grad_courses = [f"{dept}/GraduateCourse{i}" for i in range(cfg.graduate_courses)]
    for course in courses:
        builder.typed(course, ub.COURSE)
    for course in grad_courses:
        builder.typed(course, ub.GRADUATE_COURSE)
        # GraduateCourse ⊑ Course is also materialised as an rdf:type
        # edge so the S3/S4 patterns that ask for ub:Course match.
        builder.typed(course, ub.COURSE)

    faculty: list[str] = []
    faculty_plan = (
        (ub.FULL_PROFESSOR, "FullProfessor", cfg.full_professors),
        (ub.ASSOCIATE_PROFESSOR, "AssociateProfessor", cfg.associate_professors),
        (ub.ASSISTANT_PROFESSOR, "AssistantProfessor", cfg.assistant_professors),
        (ub.LECTURER, "Lecturer", cfg.lecturers),
    )
    for class_name, stem, count in faculty_plan:
        for i in range(count):
            person = f"{dept}/{stem}{i}"
            faculty.append(person)
            builder.typed(person, class_name)
            builder.edge(person, ub.P_WORKS_FOR, dept)
            builder.edge(person, ub.P_NAME, f"{stem}{i}")
            builder.edge(
                person, ub.P_EMAIL, f"{stem}{i}@Department{d}.University{u}.edu"
            )
            for degree in (
                ub.P_UNDERGRAD_DEGREE_FROM,
                ub.P_MASTERS_DEGREE_FROM,
                ub.P_DOCTORAL_DEGREE_FROM,
            ):
                builder.edge(person, degree, rng.choice(all_universities))
            topic = f"Research{rng.randrange(cfg.research_topics)}"
            builder.edge(person, ub.P_RESEARCH_INTEREST, topic)
            teachable = courses + grad_courses
            for course in rng.sample(teachable, min(2, len(teachable))):
                builder.edge(person, ub.P_TEACHER_OF, course)
    builder.edge(faculty[0], ub.P_HEAD_OF, dept)
    professors = [p for p in faculty if "Lecturer" not in p]

    undergrads: list[str] = []
    for i in range(cfg.undergraduates):
        student = f"{dept}/UndergraduateStudent{i}"
        undergrads.append(student)
        builder.typed(student, ub.UNDERGRADUATE_STUDENT)
        builder.edge(student, ub.P_MEMBER_OF, dept)
        builder.edge(student, ub.P_NAME, f"UndergraduateStudent{i}")
        count = rng.randint(*cfg.undergrad_courses)
        for course in rng.sample(courses, min(count, len(courses))):
            builder.edge(student, ub.P_TAKES_COURSE, course)

    grads: list[str] = []
    for i in range(cfg.graduates):
        student = f"{dept}/GraduateStudent{i}"
        grads.append(student)
        builder.typed(student, ub.GRADUATE_STUDENT)
        builder.edge(student, ub.P_MEMBER_OF, dept)
        builder.edge(student, ub.P_NAME, f"GraduateStudent{i}")
        builder.edge(student, ub.P_ADVISOR, rng.choice(professors))
        builder.edge(student, ub.P_UNDERGRAD_DEGREE_FROM, rng.choice(all_universities))
        count = rng.randint(*cfg.grad_courses)
        for course in rng.sample(grad_courses, min(count, len(grad_courses))):
            builder.edge(student, ub.P_TAKES_COURSE, course)

    authors_pool = faculty + grads
    for i in range(cfg.publications):
        publication = f"{dept}/Publication{i}"
        builder.typed(publication, ub.PUBLICATION)
        count = rng.randint(*cfg.authors)
        for author in rng.sample(authors_pool, min(count, len(authors_pool))):
            builder.edge(publication, ub.P_PUBLICATION_AUTHOR, author)

    return faculty + undergrads + grads
