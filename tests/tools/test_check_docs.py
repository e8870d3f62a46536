"""Unit tests for ``tools/check_docs.py`` (link check, doctests, coverage)."""

from __future__ import annotations

import sys
import types

import pytest

from tools import check_docs


class TestGithubSlug:
    @pytest.mark.parametrize(
        ("heading", "slug"),
        [
            ("Plain Heading", "plain-heading"),
            ("Scenario API — `repro.experiments.scenario`", "scenario-api--reproexperimentsscenario"),
            ("With `code` span", "with-code-span"),
            ("Hyphen-ated words", "hyphen-ated-words"),
            ("Punctuation?! dropped.", "punctuation-dropped"),
        ],
    )
    def test_slugs(self, heading, slug):
        assert check_docs.github_slug(heading) == slug


class TestHeadingSlugs:
    def test_collects_all_levels(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# Top\n\nprose\n\n## Sub Section\n\n###### Deep\n")
        assert check_docs.heading_slugs(doc) == ["top", "sub-section", "deep"]


class TestCheckLinks:
    @pytest.fixture()
    def docs_tree(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "OTHER.md").write_text("# Other Title\n")
        return tmp_path

    def test_valid_relative_link_passes(self, docs_tree):
        doc = docs_tree / "docs" / "INDEX.md"
        doc.write_text("[other](OTHER.md)\n")
        assert check_docs.check_links(doc) == []

    def test_broken_link_reported(self, docs_tree):
        doc = docs_tree / "docs" / "INDEX.md"
        doc.write_text("[gone](MISSING.md)\n")
        errors = check_docs.check_links(doc)
        assert len(errors) == 1
        assert "broken link -> MISSING.md" in errors[0]

    def test_valid_anchor_passes(self, docs_tree):
        doc = docs_tree / "docs" / "INDEX.md"
        doc.write_text("[other](OTHER.md#other-title)\n")
        assert check_docs.check_links(doc) == []

    def test_missing_anchor_reported(self, docs_tree):
        doc = docs_tree / "docs" / "INDEX.md"
        doc.write_text("[other](OTHER.md#no-such-heading)\n")
        errors = check_docs.check_links(doc)
        assert len(errors) == 1
        assert "missing anchor" in errors[0]

    def test_same_file_anchor(self, docs_tree):
        doc = docs_tree / "docs" / "INDEX.md"
        doc.write_text("# My Heading\n\n[jump](#my-heading)\n[bad](#nope)\n")
        errors = check_docs.check_links(doc)
        assert len(errors) == 1
        assert "#nope" in errors[0]

    def test_external_links_are_skipped(self, docs_tree):
        doc = docs_tree / "docs" / "INDEX.md"
        doc.write_text(
            "[ext](https://example.com/x) [mail](mailto:a@b.c) "
            "[plain](http://example.com)\n"
        )
        assert check_docs.check_links(doc) == []


class TestCheckReferences:
    @pytest.fixture()
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "mod.py").write_text("")
        (tmp_path / "Makefile").write_text("test:  ## run\n\tpytest\ndocs-check:\n\ttrue\n")
        return tmp_path

    def test_resolving_paths_and_targets_pass(self, repo):
        doc = repo / "README.md"
        doc.write_text(
            "`src/pkg/mod.py`, `src/pkg/`, `src/pkg/m*.py`, `src/pkg/mod.py::test_x`,\n"
            "`src/pkg/mod.py:12`, `make test`, `make docs-check ARG=1`,\n"
            "`repro.fl.base.BaseTrainer.run`, `repro.fl`, `repro.*`\n"
            "```sh\nmake test\n```\n"
        )
        assert check_docs.check_references(doc) == []

    def test_stale_path_and_unknown_target_reported(self, repo):
        doc = repo / "README.md"
        doc.write_text(
            "`src/pkg/mod` and `tests/gone.py::test_x`, then `make bench`\n"
            "`repro.fl.GroupedAsyncTrainer._dispatch_all()`, `repro.gone`\n"
            "```sh\nmake test\nmake bench-xl N=1\n```\n"
        )
        assert check_docs.check_references(doc) == [
            "README.md: stale path -> src/pkg/mod",
            "README.md: stale path -> tests/gone.py",
            "README.md: stale name -> repro.fl.GroupedAsyncTrainer._dispatch_all",
            "README.md: stale name -> repro.gone",
            "README.md: unknown make target -> make bench",
            "README.md: unknown make target -> make bench-xl",
        ]


class TestCheckMdPointers:
    def test_missing_document_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "API.md").write_text("# API\n")
        (tmp_path / "ROADMAP.md").write_text("# Roadmap\n")
        bench = tmp_path / "benchmarks" / "suite"
        bench.mkdir(parents=True)
        (bench / "README.md").write_text("# Suite\n")
        (bench / "run.py").write_text(
            '"""See README.md, API.md, docs/API.md and ROADMAP.md; not `*.md`."""\n'
            "OUTPUT = 'report.md'\n"
        )
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("# see DESIGN.md, then API.md\n")
        assert check_docs.check_md_pointers() == ["src/mod.py: missing document -> DESIGN.md"]


class TestRunDoctests:
    def test_file_without_examples_is_skipped(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# No examples here\n")
        assert check_docs.run_doctests(doc) == (0, 0)

    def test_passing_examples_counted(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```text\n>>> 1 + 1\n2\n\n```\n")
        assert check_docs.run_doctests(doc) == (0, 1)

    def test_failing_example_reported(self, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text("```text\n>>> 1 + 1\n3\n\n```\n")
        failed, attempted = check_docs.run_doctests(doc)
        capsys.readouterr()  # swallow doctest's failure report
        assert (failed, attempted) == (1, 1)


class TestModuleDoctests:
    def test_docstring_examples_of_src_modules_run_and_pass(self):
        results = {
            name: (failed, attempted)
            for name, failed, attempted in check_docs.run_module_doctests()
        }
        assert {"repro.registry", "repro.fl.staleness"} <= set(results)
        for name, (failed, attempted) in results.items():
            assert attempted > 0 and failed == 0, name


class TestApiCoverage:
    @pytest.fixture()
    def fake_module(self, monkeypatch):
        module = types.ModuleType("zz_fake_public")
        module.__all__ = ["documented_fn", "missing_fn"]
        monkeypatch.setitem(sys.modules, "zz_fake_public", module)
        monkeypatch.setattr(
            check_docs, "API_COVERAGE_MODULES", ("zz_fake_public",)
        )
        return module

    def test_missing_api_doc_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        errors = check_docs.check_api_coverage(tmp_path / "docs" / "API.md")
        assert errors == ["docs/API.md: file missing"]

    def test_undocumented_export_reported(self, tmp_path, monkeypatch, fake_module):
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        api = tmp_path / "docs" / "API.md"
        api.parent.mkdir()
        api.write_text("`documented_fn` is covered here.\n")
        errors = check_docs.check_api_coverage(api)
        assert len(errors) == 1
        assert "zz_fake_public.missing_fn" in errors[0]

    def test_substring_mention_does_not_count(self, tmp_path, monkeypatch, fake_module):
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        api = tmp_path / "docs" / "API.md"
        api.parent.mkdir()
        api.write_text("documented_fn and missing_fn_extended only.\n")
        errors = check_docs.check_api_coverage(api)
        assert len(errors) == 1
        assert "missing_fn" in errors[0]

    def test_module_without_all_reported(self, tmp_path, monkeypatch):
        module = types.ModuleType("zz_no_all")
        monkeypatch.setitem(sys.modules, "zz_no_all", module)
        monkeypatch.setattr(check_docs, "API_COVERAGE_MODULES", ("zz_no_all",))
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        api = tmp_path / "docs" / "API.md"
        api.parent.mkdir()
        api.write_text("anything\n")
        errors = check_docs.check_api_coverage(api)
        assert errors == ["zz_no_all defines no __all__ to check"]


class TestMain:
    def test_real_repo_passes(self, capsys):
        assert check_docs.main() == 0
        assert "docs check passed" in capsys.readouterr().out

    def test_failure_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "API_COVERAGE_MODULES", ())
        (tmp_path / "README.md").write_text("[broken](MISSING.md)\n")
        assert check_docs.main() == 1
        assert "docs check failed" in capsys.readouterr().out
