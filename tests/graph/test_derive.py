"""``FrozenGraph.derive``: the next snapshot from an update batch.

An update never copies, mutates or re-freezes a mutable graph: the
serving snapshot derives its successor, re-cutting only the rows the
batch wrote and sharing every other row object.  That is bookkeeping
over the same content, so the oracle is a graph that has none of it:
the name-level operation log of the chain is replayed into a *fresh*
``KnowledgeGraph`` (never copied, never frozen before) that is then
frozen from scratch, and whatever a derived snapshot reports must equal
what that replay reports.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import FrozenGraph, KnowledgeGraph

#: Names of both kinds a graph may hold.
VERTICES = ["n0", "n1", "n2", 3, 4, 5]
LABELS = ["a", "b", "c"]
#: Every name a membership probe asks about, misses included.
POOL_VERTICES = VERTICES + ["ghost"]
POOL_LABELS = LABELS + ["zz"]

OPS = (
    ["add"] * 4
    + ["remove"] * 3
    + ["duplicate", "miss", "readd", "flip", "new_vertex", "new_label"]
)


def replay(log) -> KnowledgeGraph:
    graph = KnowledgeGraph("replay")
    for source, label, target, op in log:
        if op == "add":
            graph.add_edge(source, label, target)
        else:
            graph.remove_edge(source, label, target)
    return graph


def rows(direction):
    return direction.masks, direction.all_targets, direction.bounds


def state(snapshot: FrozenGraph):
    """Everything a snapshot answers from, as plain values."""
    return (
        [list(part) for part in rows(snapshot._csr_out)],
        [list(part) for part in rows(snapshot._csr_in)],
        list(snapshot.vertex_names()),
        list(snapshot.labels.names()),
        set(snapshot.edges()),
        [snapshot.out_degree(v) for v in snapshot.vertices()],
        [snapshot.in_degree(v) for v in snapshot.vertices()],
        [list(snapshot.edges_with_label(l)) for l in range(snapshot.num_labels)],
        [snapshot.label_frequency(l) for l in range(snapshot.num_labels)],
        snapshot.mutation_count,
        snapshot.content_fingerprint(),
    )


def assert_equals_replay(snapshot: FrozenGraph, twin: FrozenGraph):
    assert not hasattr(snapshot, "_out") and not hasattr(snapshot, "_in")
    assert rows(snapshot._csr_out) == rows(twin._csr_out)
    assert rows(snapshot._csr_in) == rows(twin._csr_in)
    for direction in (snapshot._csr_out, snapshot._csr_in):
        assert all(type(row) is tuple for row in direction.all_targets)
        assert all(
            type(row) is tuple and all(type(cell) is int for cell in row)
            for row in direction.bounds
        )
    assert list(snapshot.vertex_names()) == list(twin.vertex_names())
    assert list(snapshot.labels.names()) == list(twin.labels.names())
    assert snapshot.num_edges == twin.num_edges
    assert snapshot.mutation_count == twin.mutation_count
    for v in twin.vertices():
        assert snapshot.out_degree(v) == twin.out_degree(v)
        assert snapshot.in_degree(v) == twin.in_degree(v)
    for label_id in range(twin.num_labels):
        assert snapshot.label_frequency(label_id) == twin.label_frequency(label_id)
        assert snapshot.edges_with_label(label_id) == twin.edges_with_label(label_id)
    for s in twin.vertices():
        for label_id in range(twin.num_labels):
            for t in twin.vertices():
                edge = (s, label_id, t)
                assert snapshot.has_edge(*edge) == twin.has_edge(*edge)
        for t in twin.vertices():
            assert snapshot.labels_between(s, t) == twin.labels_between(s, t)
    for source in POOL_VERTICES:
        for label in POOL_LABELS:
            for target in POOL_VERTICES:
                edge = (source, label, target)
                assert snapshot.has_edge_named(*edge) == twin.has_edge_named(*edge)
    assert snapshot.content_fingerprint() == snapshot.scan_fingerprint()
    assert snapshot.content_fingerprint() == twin.content_fingerprint()


def assert_shares_untouched_rows(child, parent, touched_out, touched_in):
    """Rows the batch did not write are the parent's own objects, and
    the counters say exactly that."""
    for direction, base, touched in (
        (child._csr_out, parent._csr_out, touched_out),
        (child._csr_in, parent._csr_in, touched_in),
    ):
        inherited, size = len(base.masks), len(direction.masks)
        recut = touched | set(range(inherited, size))
        for v in set(range(size)) - recut:
            assert direction.bounds[v] is base.bounds[v]
            assert direction.all_targets[v] is base.all_targets[v]
        assert direction.rows_recut == len(recut)
        assert direction.rows_shared == size - len(recut)
    assert child.rows_recut == child._csr_out.rows_recut + child._csr_in.rows_recut


def assert_rows_are_two_tuples(snapshot: FrozenGraph):
    """A row is its targets and its group ends and nothing else: a
    one-group row's bounds is ``(label, len)``, and an empty row is
    empty in both lists."""
    for direction in (snapshot._csr_out, snapshot._csr_in):
        for mask, targets, bounds in zip(*rows(direction)):
            if not targets:
                assert targets == bounds == ()
                assert mask == 0
            elif bin(mask).count("1") == 1:
                assert bounds == (mask.bit_length() - 1, len(targets))


class Chain:
    """A chain of derived snapshots, its operation log and its replay."""

    def __init__(self, edges):
        self.log = [(*edge, "add") for edge in edges]
        self.snapshot = replay(self.log).freeze()
        self.last_removed = None
        self.fresh = iter(range(10**6))

    def named_edges(self):
        names = self.snapshot.name_of
        label = self.snapshot.label_name
        return [(names(s), label(l), names(t)) for s, l, t in self.snapshot.edges()]

    def batch(self, script):
        """Interpret ``script`` against the serving snapshot."""
        batch = []
        present = self.named_edges()
        for op, a, b, c in script:
            edge = (VERTICES[a % 6], LABELS[b % 3], VERTICES[c % 6])
            if op == "add":
                batch.append((*edge, "add"))
            elif op in ("remove", "duplicate") and present:
                chosen = present[a % len(present)]
                batch.append((*chosen, "remove" if op == "remove" else "add"))
                if op == "remove":
                    self.last_removed = chosen
            elif op == "miss":
                ghost = [edge, ("ghost", edge[1], edge[2]), (edge[0], "zz", edge[2])]
                batch.append((*ghost[b % 3], "remove"))
            elif op == "readd" and self.last_removed is not None:
                batch.append((*self.last_removed, "add"))
            elif op == "flip":
                batch += [(*edge, "add"), (*edge, "remove")]
            elif op == "new_vertex":
                k = next(self.fresh)
                fresh = 1000 + k if c % 2 else f"v{k}"
                pair = (fresh, edge[2]) if a % 2 else (edge[0], fresh)
                batch.append((pair[0], edge[1], pair[1], "add"))
            elif op == "new_label":
                batch.append((edge[0], f"x{next(self.fresh)}", edge[2], "add"))
        return batch

    def derive(self, batch):
        parent = self.snapshot
        before = state(parent)
        oracle = replay(self.log)
        expected = dict.fromkeys(("added", "duplicates", "removed", "missing"), 0)
        touched_out, touched_in = set(), set()
        for source, label, target, op in batch:
            if op == "add":
                done = oracle.add_edge(source, label, target)
                expected["added" if done else "duplicates"] += 1
            else:
                done = oracle.remove_edge(source, label, target)
                expected["removed" if done else "missing"] += 1
            if done:
                touched_out.add(oracle.vid(source))
                touched_in.add(oracle.vid(target))
        expected["vertices_added"] = oracle.num_vertices - parent.num_vertices

        child, counts, (added, removed) = parent.derive(batch)
        self.log += batch
        twin = replay(self.log).freeze()
        assert twin.rows_shared == 0
        assert state(parent) == before  # the parent is left as it was
        assert isinstance(child, FrozenGraph) and child.freeze() is child
        assert counts == expected
        assert added == set(child.edges()) - set(parent.edges())
        assert removed == set(parent.edges()) - set(child.edges())
        assert_equals_replay(child, twin)
        assert_shares_untouched_rows(child, parent, touched_out, touched_in)
        self.snapshot = child
        return child


numbers = st.integers(min_value=0, max_value=2**16)
scripts = st.lists(
    st.lists(
        st.tuples(st.sampled_from(OPS), numbers, numbers, numbers),
        min_size=1,
        max_size=6,
    ),
    max_size=6,
)
seed_edges = st.lists(
    st.tuples(st.sampled_from(VERTICES), st.sampled_from(LABELS),
              st.sampled_from(VERTICES)),
    max_size=12,
)


class TestDerivedChains:
    # At least 200 chains; more under a larger profile (CI's differential job).
    @settings(max_examples=max(200, settings().max_examples), deadline=None)
    @given(seed_edges, scripts)
    def test_every_derived_snapshot_equals_its_replay(self, edges, script):
        chain = Chain(edges)
        assert_equals_replay(chain.snapshot, replay(chain.log).freeze())
        for batch_script in script:
            chain.derive(chain.batch(batch_script))

    @settings(deadline=None)
    @given(seed_edges, scripts)
    def test_every_row_is_two_tuples_down_the_chain(self, edges, script):
        chain = Chain(edges)
        assert_rows_are_two_tuples(chain.snapshot)
        for batch_script in script:
            assert_rows_are_two_tuples(chain.derive(chain.batch(batch_script)))


class TestNamedCases:
    """Cases the property covers, spelled out so a failure names them."""

    def test_an_emptied_row_stays_empty_down_the_chain(self):
        chain = Chain([("n0", "a", "n1"), ("n2", "a", 3)])
        root = chain.snapshot
        first = chain.derive([("n0", "a", "n1", "remove")])
        second = chain.derive([("n2", "c", "n0", "add")])
        assert root._csr_out.bounds[0] == (0, 1)
        assert first._csr_out.bounds[0] == second._csr_out.bounds[0] == ()
        assert first._csr_out.all_targets[0] == second._csr_out.all_targets[0] == ()
        assert (
            second._csr_in.bounds[3]
            is first._csr_in.bounds[3]
            is root._csr_in.bounds[3]
        )

    def test_siblings_never_see_each_others_writes(self):
        chain = Chain([("n0", "a", "n1"), ("n1", "a", "n2")])
        parent = chain.snapshot
        grown, *_ = parent.derive([("n0", "a", "n2", "add")])
        shrunk, *_ = parent.derive([("n1", "a", "n2", "remove")])
        assert list(parent.out_by_label(0, 0)) == [1]
        assert list(grown.out_by_label(0, 0)) == [1, 2]
        assert list(shrunk.out_by_label(0, 0)) == [1]
        assert list(grown.out_by_label(1, 0)) == [2]
        assert list(shrunk.out_by_label(1, 0)) == []
        assert parent.has_edge(1, 0, 2) and not shrunk.has_edge(1, 0, 2)

    def test_a_batch_that_changes_nothing_shares_every_row(self):
        chain = Chain([("n0", "a", "n1")])
        child = chain.derive(
            [("n0", "a", "n1", "add"), ("ghost", "a", "n1", "remove")]
        )
        assert child.rows_recut == 0 and child.rows_shared == 4

    def test_add_then_remove_nets_to_no_change(self):
        parent = Chain([("n0", "a", "n1")]).snapshot
        child, counts, change = parent.derive(
            [("n1", "b", "n0", "add"), ("n1", "b", "n0", "remove")]
        )
        assert change == (frozenset(), frozenset())
        assert counts["added"] == counts["removed"] == 1
        assert list(child.labels.names()) == ["a", "b"]  # the add interned it
        assert child.num_edges == 1
