"""The README quickstart and public-API surface, pinned."""

import importlib
import pkgutil

import pytest

import repro

#: Every package and module under ``repro`` that declares ``__all__``
#: (``__main__`` modules run when imported, so they are left out).
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
    and hasattr(importlib.import_module(info.name), "__all__")
)


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("module", ["repro", *MODULES])
    def test_all_exports_resolve(self, module):
        namespace = importlib.import_module(module)
        for name in namespace.__all__:
            assert getattr(namespace, name) is not None, name

    def test_readme_quickstart(self):
        g = (
            repro.GraphBuilder("example")
            .edge("v0", "friendOf", "v1")
            .edge("v1", "friendOf", "v3")
            .edge("v3", "likes", "v4")
            .build()
        )
        query = repro.LSCRQuery.create(
            "v0",
            "v4",
            ["friendOf", "likes"],
            "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }",
        )
        result = repro.UIS(g).answer(query)
        assert result.answer is True
        assert result.passed_vertices >= 1

    def test_all_algorithms_importable_from_root(self):
        for cls in (
            repro.UIS,
            repro.UISStar,
            repro.INS,
            repro.NaiveTwoProcedure,
            repro.MeetSearch,
        ):
            assert issubclass(cls, repro.LSCRAlgorithm)

    def test_exception_hierarchy(self):
        from repro import exceptions

        for name in (
            "GraphError",
            "SparqlError",
            "ConstraintError",
            "IndexingError",
            "WorkloadError",
            "BenchmarkError",
        ):
            assert issubclass(getattr(exceptions, name), exceptions.ReproError)
