"""Row-shared copies, row-patched snapshots, running fingerprint.

``KnowledgeGraph.copy()`` shares adjacency rows with its origin,
``freeze()`` of such a copy patches the origin's snapshot instead of
cutting every row, and ``content_fingerprint()`` keeps a running
accumulator.  All three are bookkeeping over the same content, so the
oracle is a graph that has none of it: the name-level operation log of
every live graph is replayed into a *fresh* ``KnowledgeGraph`` (never
copied, never frozen before), and whatever the chained graph or any of
its snapshots reports must equal what the replay reports.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import FrozenGraph, KnowledgeGraph

VERTICES = [f"n{i}" for i in range(6)]
LABELS = ["a", "b", "c"]
MAX_LINES = 5

OPS = (
    ["add"] * 4
    + ["remove"] * 3
    + ["readd", "new_vertex", "new_label"]
    + ["copy"] * 2
    + ["freeze"] * 3
)


def replay(log) -> KnowledgeGraph:
    graph = KnowledgeGraph("replay")
    for op, source, label, target in log:
        if op == "add":
            graph.add_edge(source, label, target)
        else:
            graph.remove_edge(source, label, target)
    return graph


class Line:
    """One live mutable graph, its operation log, and the test's own
    account of which snapshot its next freeze may share rows with."""

    def __init__(self, graph, log, base=None, touched_out=(), touched_in=()):
        self.graph = graph
        self.log = list(log)
        self.base = base
        self.touched_out = set(touched_out)
        self.touched_in = set(touched_in)
        self.last_removed = None

    def apply(self, op, source, label, target):
        self.log.append((op, source, label, target))
        mutate = self.graph.add_edge if op == "add" else self.graph.remove_edge
        if mutate(source, label, target):
            self.touched_out.add(self.graph.vid(source))
            self.touched_in.add(self.graph.vid(target))
            if op == "remove":
                self.last_removed = (source, label, target)

    def copy(self):
        return Line(
            self.graph.copy(), self.log, self.base, self.touched_out, self.touched_in
        )


def rows(direction):
    return direction.masks, direction.all_targets, direction.groups


def assert_rows_equal(snapshot: FrozenGraph, twin: FrozenGraph):
    """Everything a snapshot answers from its own rows."""
    assert rows(snapshot._csr_out) == rows(twin._csr_out)
    assert rows(snapshot._csr_in) == rows(twin._csr_in)
    assert list(snapshot.edges()) == list(twin.edges())
    for v in range(len(twin._csr_out.masks)):
        assert list(snapshot.out_edges(v)) == list(twin.out_edges(v))
        assert list(snapshot.in_edges(v)) == list(twin.in_edges(v))
    for direction in (snapshot._csr_out, snapshot._csr_in):
        assert all(type(row) is tuple for row in direction.all_targets)
        assert all(
            type(row) is tuple and all(type(group[1]) is tuple for group in row)
            for row in direction.groups
        )


def assert_snapshot_equals_twin(snapshot: FrozenGraph, twin: FrozenGraph):
    """A snapshot whose source has not moved on: the set-backed reads
    (shared with the source by contract) must agree as well."""
    assert_rows_equal(snapshot, twin)
    assert snapshot.num_vertices == twin.num_vertices
    assert snapshot.num_edges == twin.num_edges
    for s in twin.vertices():
        for t in twin.vertices():
            assert snapshot.labels_between(s, t) == twin.labels_between(s, t)
    assert snapshot.content_fingerprint() == twin.content_fingerprint()
    assert snapshot.scan_fingerprint() == twin.content_fingerprint()


def assert_shares_untouched_rows(snapshot, base, touched_out, touched_in):
    """The sharing proof: rows not written since ``base`` was cut are
    ``base``'s own objects, and the counters say exactly that."""
    for direction, parent, touched in (
        (snapshot._csr_out, base._csr_out, touched_out),
        (snapshot._csr_in, base._csr_in, touched_in),
    ):
        inherited, size = len(parent.masks), len(direction.masks)
        recut = touched | set(range(inherited, size))
        for v in set(range(size)) - recut:
            assert direction.groups[v] is parent.groups[v]
            assert direction.all_targets[v] is parent.all_targets[v]
        assert direction.rows_recut == len(recut)
        assert direction.rows_shared == size - len(recut)
    assert snapshot.rows_recut == (
        snapshot._csr_out.rows_recut + snapshot._csr_in.rows_recut
    )


def freeze(line: Line, snapshots: list):
    snapshot = line.graph.freeze()
    if (
        line.base is not None
        and line.base.source is line.graph
        and line.base.mutation_count == line.graph.mutation_count
    ):
        assert snapshot is line.base  # unchanged since its own snapshot
        return
    twin = replay(line.log).freeze()
    assert twin.rows_shared == 0 and twin.rows_recut == 2 * twin.num_vertices
    if line.base is None:
        assert snapshot.rows_shared == 0
    else:
        assert_shares_untouched_rows(
            snapshot, line.base, line.touched_out, line.touched_in
        )
    snapshots.append((snapshot, twin))
    line.base = snapshot
    line.touched_out, line.touched_in = set(), set()


def check_everything(lines, snapshots):
    for line in lines:
        fresh = replay(line.log)
        graph = line.graph
        assert graph.num_vertices == fresh.num_vertices
        assert graph.num_edges == fresh.num_edges
        assert list(graph.labels.names()) == list(fresh.labels.names())
        for v in fresh.vertices():
            assert list(graph.out_edges(v)) == list(fresh.out_edges(v))
            assert list(graph.in_edges(v)) == list(fresh.in_edges(v))
        assert graph.content_fingerprint() == fresh.content_fingerprint()
        assert graph.scan_fingerprint() == fresh.content_fingerprint()
    for snapshot, twin in snapshots:
        if snapshot.source.mutation_count == snapshot.mutation_count:
            assert_snapshot_equals_twin(snapshot, twin)
        else:
            assert_rows_equal(snapshot, twin)


def interpret(lines, snapshots, counter, op, pick, a, b, c):
    line = lines[pick % len(lines)]
    if op == "add":
        line.apply("add", VERTICES[a % 6], LABELS[b % 3], VERTICES[c % 6])
    elif op == "remove":
        edges = sorted(line.graph.edges_named())
        if edges:  # hit a real edge, so rows do get emptied
            line.apply("remove", *edges[a % len(edges)])
    elif op == "readd":
        if line.last_removed is not None:
            line.apply("add", *line.last_removed)
    elif op == "new_vertex":
        fresh = f"v{next(counter)}"
        if a % 2:
            line.apply("add", fresh, LABELS[b % 3], VERTICES[c % 6])
        else:
            line.apply("add", VERTICES[c % 6], LABELS[b % 3], fresh)
    elif op == "new_label":
        line.apply("add", VERTICES[a % 6], f"x{next(counter)}", VERTICES[c % 6])
    elif op == "copy" and len(lines) < MAX_LINES:
        lines.append(line.copy())
    else:
        freeze(line, snapshots)


numbers = st.integers(min_value=0, max_value=2**16)
steps = st.lists(
    st.tuples(st.sampled_from(OPS), numbers, numbers, numbers, numbers),
    max_size=40,
)
seed_edges = st.lists(
    st.tuples(st.sampled_from(VERTICES), st.sampled_from(LABELS),
              st.sampled_from(VERTICES)),
    max_size=12,
)


class TestChainedCopiesAndSnapshots:
    @settings(max_examples=200, deadline=None)
    @given(seed_edges, steps)
    def test_every_graph_and_snapshot_equals_its_replay(self, edges, script):
        log = [("add", *edge) for edge in edges]
        lines = [Line(replay(log), log)]
        snapshots: list = []
        counter = iter(range(10**6))
        check_everything(lines, snapshots)
        for step in script:
            interpret(lines, snapshots, counter, *step)
            check_everything(lines, snapshots)


def chain(*edges):
    log = [("add", *edge) for edge in edges]
    return Line(replay(log), log)


class TestNamedHazards:
    """The cases the property covers, spelled out so a failure names them."""

    def test_copy_of_an_unfrozen_copy_keeps_its_dirty_rows(self):
        origin = chain(("n0", "a", "n1"), ("n2", "a", "n3"))
        snapshots: list = []
        freeze(origin, snapshots)
        first = origin.copy()
        first.apply("add", "n0", "b", "n2")  # dirty, owned by `first`
        second = first.copy()                # owns nothing, dirty all the same
        freeze(second, snapshots)
        freeze(first, snapshots)
        check_everything([origin, first, second], snapshots)
        assert second.graph.freeze().has_out_label(0, second.graph.label_id("b"))

    def test_second_freeze_patches_from_its_own_snapshot(self):
        origin = chain(("n0", "a", "n1"), ("n2", "a", "n3"))
        snapshots: list = []
        freeze(origin, snapshots)
        copy = origin.copy()
        copy.apply("remove", "n0", "a", "n1")  # empties both rows
        freeze(copy, snapshots)
        own = copy.base
        copy.apply("add", "n2", "c", "n0")
        freeze(copy, snapshots)  # asserts sharing against `own`, not origin's
        assert copy.base is not own
        assert origin.base._csr_out.groups[0] == ((0, (1,)),)
        assert copy.base._csr_out.groups[0] == ()  # not resurrected
        assert (
            copy.base._csr_in.groups[3]
            is own._csr_in.groups[3]
            is origin.base._csr_in.groups[3]
        )
        check_everything([origin, copy], snapshots)

    def test_neither_side_of_a_copy_sees_the_other_write(self):
        origin = chain(("n0", "a", "n1"), ("n1", "a", "n2"))
        snapshots: list = []
        freeze(origin, snapshots)
        copy = origin.copy()
        freeze(copy, snapshots)
        origin.apply("add", "n0", "a", "n2")     # same row, same label list
        copy.apply("remove", "n1", "a", "n2")
        assert list(origin.graph.out_by_label(0, 0)) == [1, 2]
        assert list(copy.graph.out_by_label(0, 0)) == [1]
        assert list(origin.graph.out_by_label(1, 0)) == [2]
        assert list(copy.graph.out_by_label(1, 0)) == []
        check_everything([origin, copy], snapshots)

    def test_an_unmutated_copy_freezes_to_its_own_fully_shared_snapshot(self):
        origin = chain(("n0", "a", "n1"))
        parent = origin.graph.freeze()
        copy = origin.graph.copy()
        child = copy.freeze()
        assert child is not parent and child.source is copy
        assert child.rows_recut == 0 and child.rows_shared == 4
        assert copy.freeze() is child
