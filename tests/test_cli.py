"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.algorithms import ALGORITHMS
from repro.graph.io import dump_tsv
from repro.datasets.toy import figure3_graph


@pytest.fixture()
def g0_path(tmp_path):
    path = tmp_path / "g0.tsv"
    dump_tsv(figure3_graph(), path)
    return str(path)


class TestGenerate:
    def test_lubm(self, tmp_path, capsys):
        out = str(tmp_path / "d0.tsv")
        assert main(["generate", "--lubm", "D0", "--output", out]) == 0
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "d0.tsv").stat().st_size > 0

    def test_yago(self, tmp_path, capsys):
        out = str(tmp_path / "y.tsv")
        assert main(["generate", "--yago", "100", "--output", out]) == 0
        assert "vertices" in capsys.readouterr().out

    def test_random(self, tmp_path):
        out = str(tmp_path / "r.tsv")
        assert main(["generate", "--random", "30", "1.5", "3", "--output", out]) == 0

    def test_generate_requires_kind(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--output", str(tmp_path / "x.tsv")])


class TestStats:
    def test_basic(self, g0_path, capsys):
        assert main(["stats", g0_path]) == 0
        out = capsys.readouterr().out
        assert "|V|=5" in out

    def test_label_histogram(self, g0_path, capsys):
        assert main(["stats", g0_path, "--labels"]) == 0
        assert "friendOf" in capsys.readouterr().out


class TestIndex:
    def test_build_and_save(self, g0_path, tmp_path, capsys):
        out = str(tmp_path / "idx.json")
        assert main(["index", g0_path, "--output", out, "--k", "2"]) == 0
        assert "landmarks" in capsys.readouterr().out
        assert (tmp_path / "idx.json").stat().st_size > 0


class TestQuery:
    CONSTRAINT = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"

    def test_true_query_exit_zero(self, g0_path, capsys):
        code = main(
            [
                "query",
                g0_path,
                "--source", "v0",
                "--target", "v4",
                "--labels", "likes,follows",
                "--constraint", self.CONSTRAINT,
            ]
        )
        assert code == 0
        assert "answer=True" in capsys.readouterr().out

    def test_false_query_exit_one(self, g0_path, capsys):
        code = main(
            [
                "query",
                g0_path,
                "--source", "v0",
                "--target", "v3",
                "--labels", "likes,follows",
                "--constraint", self.CONSTRAINT,
            ]
        )
        assert code == 1
        assert "answer=False" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_all_algorithms(self, g0_path, algorithm, capsys):
        code = main(
            [
                "query",
                g0_path,
                "--source", "v0",
                "--target", "v4",
                "--labels", "likes,follows",
                "--constraint", self.CONSTRAINT,
                "--algorithm", algorithm,
            ]
        )
        assert code == 0

    def test_witness_printed(self, g0_path, capsys):
        code = main(
            [
                "query",
                g0_path,
                "--source", "v0",
                "--target", "v4",
                "--labels", "likes,follows",
                "--constraint", self.CONSTRAINT,
                "--witness",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "witness" in out
        assert "--likes-->" in out

    def test_ins_with_saved_index(self, g0_path, tmp_path, capsys):
        index_path = str(tmp_path / "idx.json")
        main(["index", g0_path, "--output", index_path, "--k", "2"])
        capsys.readouterr()
        code = main(
            [
                "query",
                g0_path,
                "--source", "v0",
                "--target", "v4",
                "--labels", "likes,follows",
                "--constraint", self.CONSTRAINT,
                "--algorithm", "ins",
                "--index", index_path,
            ]
        )
        assert code == 0

    def test_bad_vertex_reports_error(self, g0_path, capsys):
        code = main(
            [
                "query",
                g0_path,
                "--source", "nope",
                "--target", "v4",
                "--labels", "likes",
                "--constraint", self.CONSTRAINT,
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestServe:
    """Parser-level serve tests; real serving is covered in tests/service."""

    def test_parser_accepts_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--graph", "g.tsv", "--index", "g.json", "--port", "0"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.index == "g.json"

    def test_serve_requires_some_graph(self, capsys):
        # --graph is optional now (a --tenant list can stand alone), but
        # serving nothing at all is a config error.
        code = main(["serve"])
        assert code == 2
        assert "--graph and/or --tenant" in capsys.readouterr().err

    def test_serve_missing_graph_reports_error(self, tmp_path, capsys):
        code = main(["serve", "--graph", str(tmp_path / "missing.tsv")])
        assert code == 2
        assert "graph file not found" in capsys.readouterr().err

    def test_parser_accepts_tenants(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--tenant", "a=a.tsv", "--tenant", "b=b.tsv:b.json"]
        )
        assert args.tenant == ["a=a.tsv", "b=b.tsv:b.json"]
        assert args.graph is None

    def test_tenant_spec_parsing(self):
        from repro.cli import _parse_tenant_spec

        assert _parse_tenant_spec("a=g.tsv") == ("a", "g.tsv", None)
        assert _parse_tenant_spec("a=g.tsv:i.json") == ("a", "g.tsv", "i.json")

    @pytest.mark.parametrize("spec", ["noequals", "=g.tsv", "name="])
    def test_tenant_spec_rejected(self, spec):
        from repro.cli import _parse_tenant_spec
        from repro.exceptions import ServiceConfigError

        with pytest.raises(ServiceConfigError, match="NAME=GRAPH"):
            _parse_tenant_spec(spec)

    def test_serve_bad_tenant_spec_reports_error(self, capsys):
        code = main(["serve", "--tenant", "broken"])
        assert code == 2
        assert "NAME=GRAPH" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--index", "g.index.json"), ("--max-concurrent", "1"),
         ("--trace-sample", "0.5"), ("--slow-ms", "1"), ("--seed", "3")],
    )
    def test_worker_refuses_index(self, flag, value, capsys):
        # A worker serves its slice and nothing else; an --index it
        # would never read — or a per-service option other than
        # --cache-size — is refused, not silently dropped.
        code = main(["serve", "--worker", "shard-0.slice.json", flag, value])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and line.endswith(f"drop {flag}")


class TestServeWalFlags:
    """Parser + validation for --wal / --follow; real WAL serving is
    covered by tests/wal and the wal-recovery CI job."""

    def test_parser_accepts_wal_flags(self):
        from repro.cli import build_parser
        from repro.wal import DEFAULT_COMPACT_EVERY, DEFAULT_POLL_INTERVAL

        args = build_parser().parse_args(
            ["serve", "--graph", "g.tsv", "--wal", "walDir",
             "--compact-every", "32"]
        )
        assert args.wal == "walDir"
        assert args.compact_every == 32
        assert args.follow is None
        args = build_parser().parse_args(
            ["serve", "--graph", "g.tsv", "--follow", "walDir",
             "--follow-interval", "0.1"]
        )
        assert args.follow == "walDir"
        assert args.follow_interval == 0.1
        defaults = build_parser().parse_args(["serve", "--graph", "g.tsv"])
        assert defaults.wal is None and defaults.follow is None
        assert defaults.compact_every == DEFAULT_COMPACT_EVERY
        assert defaults.follow_interval == DEFAULT_POLL_INTERVAL

    def test_wal_and_follow_are_mutually_exclusive(self, capsys):
        code = main(["serve", "--graph", "g.tsv", "--wal", "d", "--follow", "d"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_wal_requires_graph(self, capsys):
        code = main(["serve", "--tenant", "t=g.tsv", "--wal", "d"])
        assert code == 2
        assert "require --graph" in capsys.readouterr().err

    def test_follow_incompatible_with_shards(self, capsys):
        # --wal --shards compose (the log carries slice epochs); a
        # follower republishes read-only and cannot drive a fleet.
        code = main(["serve", "--graph", "g.tsv", "--shards", "2",
                     "--follow", "d"])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_follow_refuses_allow_updates(self, capsys):
        code = main(["serve", "--graph", "g.tsv", "--follow", "d",
                     "--allow-updates"])
        assert code == 2
        assert "read-only" in capsys.readouterr().err

    def test_compact_every_must_be_positive(self, capsys):
        code = main(["serve", "--graph", "g.tsv", "--wal", "d",
                     "--compact-every", "0"])
        assert code == 2
        assert "--compact-every" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["0", "-1", "nan", "inf"])
    def test_follow_interval_must_be_positive(self, interval, capsys):
        # A non-positive or NaN wait returns at once: the tailer would
        # rescan the log directory in a hot loop.
        code = main(["serve", "--graph", "g.tsv", "--follow-interval", interval])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: --follow-interval must be a finite number > 0, "
            f"got {float(interval)}"
        )

    @pytest.mark.parametrize("budget", ["0", "-5", "nan", "inf"])
    def test_default_deadline_must_be_finite_and_positive(self, budget, capsys):
        # A NaN deadline never expires and ships as {"deadline_ms": nan}
        # to shard workers; ?deadline_ms=nan and inf are 400s already.
        code = main(["serve", "--graph", "g.tsv", "--default-deadline-ms", budget])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: --default-deadline-ms must be a finite number > 0, "
            f"got {float(budget)}"
        )

    def test_ready_line_leaves_a_replayed_epochs_index_unread(
        self, g0_path, tmp_path, monkeypatch, capsys
    ):
        # The ready line describes the index without reading
        # service.index, whose first read would build it at boot: the
        # epoch replay derived builds its own, since the file describes
        # the base TSV.
        from repro.graph.io import load_tsv
        from repro.index.landmarks import NO_REGION
        from repro.index.storage import load_local_index
        from repro.service.app import QueryService
        from repro.service.http import ServiceHTTPServer
        from repro.service.registry import DEFAULT_TENANT
        from repro.wal import UpdateWal

        index_path, wal_dir = str(tmp_path / "g0.json"), tmp_path / "wal"
        assert main(["index", g0_path, "--output", index_path, "--k", "2"]) == 0
        graph = load_tsv(g0_path)
        index = load_local_index(index_path, graph)
        member = next(
            v for v, region in enumerate(index.partition.region) if region != NO_REGION
        )
        wal = UpdateWal(wal_dir)
        leader = QueryService(graph, index)
        leader.attach_wal(wal.tenant(DEFAULT_TENANT))
        leader.apply_updates([(graph.name_of(member), "likes", "fresh")])
        leader.close()
        wal.close()

        seen = []
        monkeypatch.setattr(
            ServiceHTTPServer,
            "serve_forever",
            lambda server: seen.append(server.registry.get().epoch.describe_index()),
        )
        assert main(["serve", "--graph", g0_path, "--index", index_path,
                     "--wal", str(wal_dir), "--port", "0"]) == 0
        (described,) = seen
        assert described == {"loaded": False, "configured": True}
        assert "index: configured, not read yet" in capsys.readouterr().out
