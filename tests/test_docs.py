"""Documentation suite checks: docs stay truthful as the code moves.

Three enforcement layers:

* generated tables must be the *verbatim* output of their renderers —
  the metric/span/event tables in ``docs/observability.md`` from
  :mod:`repro.observability.catalog`, the Backblaze attribute-mapping
  table in ``docs/paper_mapping.md`` from
  :func:`repro.smart.backblaze.render_backblaze_mapping_table` — docs
  that claim to be generated cannot drift from the code;
* every local file reference in the markdown docs must resolve
  (``tools/check_links.py``, also run as a standalone CI step);
* the runnable walkthroughs — ``examples/observability_quickstart.py``
  for ``docs/observability.md``, ``examples/datasets_quickstart.py``
  for ``docs/datasets.md`` and ``examples/explanation_quickstart.py``
  for ``docs/explanation.md`` — must execute cleanly.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from repro.observability import catalog

ROOT = Path(__file__).resolve().parents[1]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCatalogTables:
    def test_metric_table_is_generated_output(self):
        text = (ROOT / "docs" / "observability.md").read_text()
        assert "render_metric_table()" in text  # the generation marker
        assert catalog.render_metric_table() in text

    def test_span_table_is_generated_output(self):
        text = (ROOT / "docs" / "observability.md").read_text()
        assert "render_span_table()" in text
        assert catalog.render_span_table() in text

    def test_event_table_is_generated_output(self):
        text = (ROOT / "docs" / "observability.md").read_text()
        assert "render_event_table()" in text
        assert catalog.render_event_table() in text

    def test_backblaze_mapping_table_is_generated_output(self):
        from repro.smart.backblaze import render_backblaze_mapping_table

        text = (ROOT / "docs" / "paper_mapping.md").read_text()
        assert "render_backblaze_mapping_table()" in text  # the generation marker
        assert render_backblaze_mapping_table() in text

    def test_every_catalog_name_is_documented(self):
        text = (ROOT / "docs" / "observability.md").read_text()
        names = (
            catalog.metric_names() | catalog.span_names()
            | catalog.event_names()
        )
        for name in sorted(names):
            assert f"`{name}`" in text, f"{name} missing from docs/observability.md"


class TestLinkChecker:
    def test_repo_docs_have_no_broken_references(self):
        check_links = _load_tool("check_links")
        files = [
            ROOT / "README.md",
            ROOT / "DESIGN.md",
            ROOT / "EXPERIMENTS.md",
            ROOT / "ROADMAP.md",
            *sorted((ROOT / "docs").glob("*.md")),
        ]
        assert [f for f in files if not f.is_file()] == []
        assert check_links.broken_references(files) == []

    def test_checker_catches_a_broken_reference(self, tmp_path):
        check_links = _load_tool("check_links")
        page = tmp_path / "page.md"
        page.write_text(
            "A [dead link](missing/file.md) and a live one: `tools/check_links.py`.\n"
            "A dataset handle is not a path: `fleet-csv:/no/such/fleet.csv`.\n"
        )
        broken = check_links.broken_references([page])
        assert broken == [f"{page}: missing/file.md"]


#: One of each kind of line ``tools/code_lines.py`` tells apart.
_COUNTED_MODULE = '''"""Module docstring,

over three lines."""

# a comment
import os  # trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Method
        docstring."""
        text = """not a docstring,
        two lines"""
        return (text,
                os)
'''


class TestCodeLineCounter:
    def test_counts_code_but_not_blanks_comments_or_docstrings(self):
        # import, class, def, the two-line string, the two-line return.
        assert _load_tool("code_lines").count_code_lines(_COUNTED_MODULE) == 7


def _run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestWalkthroughExample:
    def test_quickstart_example_runs(self):
        proc = _run_example("observability_quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "Health report [repro.health-report/v1]" in proc.stdout
        assert "snapshot schema: repro.metrics/v1" in proc.stdout

    def test_datasets_quickstart_example_runs(self):
        proc = _run_example("datasets_quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "[repro.ingest-manifest/v1]" in proc.stdout
        assert "paper family 'W' -> ST4000DM000" in proc.stdout
        assert "Table IV: impact of time window on CT model" in proc.stdout
        assert "Datasets walkthrough complete" in proc.stdout

    def test_explanation_quickstart_example_runs(self):
        proc = _run_example("explanation_quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "Explain report [repro.explain-report/v1]" in proc.stdout
        assert "[repro.explain-uplift/v1]" in proc.stdout
        assert "[repro.explain-redundancy/v1]" in proc.stdout
        assert "Explanation walkthrough complete" in proc.stdout
