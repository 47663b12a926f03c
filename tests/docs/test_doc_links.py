"""Documentation hygiene: links resolve, the metrics catalogue is
documented as it is.

Every relative markdown link in docs/*.md, README.md, and DESIGN.md
must point at a file that exists (anchors are stripped; external
http(s)/mailto links are skipped), docs/observability.md must table
every metric registered by the repro.obs catalog exactly as the
catalog describes it *and* every trace event in ``TRACE_EVENTS``,
every literal ``tracer.emit("...")``
in the source must use a catalogued event name, and docs/memory.md
must stay in sync with ``repro.mem``'s public classes — both
directions (every exported class named, every named class real).
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Markdown files whose links we police.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"]
    + list((REPO_ROOT / "docs").glob("*.md")))

#: ``[text](target)`` — good enough for our hand-written markdown;
#: skips image links' leading ``!`` implicitly (same syntax).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(path: Path):
    for target in LINK_RE.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT))
                           for p in DOC_FILES])
def test_relative_links_resolve(doc):
    missing = []
    for target in _relative_links(doc):
        resolved = (doc.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            missing.append(target)
    assert not missing, (
        f"{doc.relative_to(REPO_ROOT)} has dead links: {missing}")


def test_python_files_the_docs_name_exist():
    """Every ``*.py`` the docs name — a bare file name in a layout
    block or a path — is a file of the package, the benchmarks, the
    examples or the tests (or sits at the repo root)."""
    files = [path.relative_to(REPO_ROOT).as_posix()
             for where in ("src/repro", "benchmarks", "examples",
                           "tests")
             for path in (REPO_ROOT / where).rglob("*.py")]
    files += [path.name for path in REPO_ROOT.glob("*.py")]
    missing = {
        f"{doc.relative_to(REPO_ROOT)}: {named}"
        for doc in DOC_FILES
        for named in re.findall(r"[\w./-]*\w\.py\b", doc.read_text())
        if not any(name == named.lstrip("./")
                   or name.endswith("/" + named.lstrip("./"))
                   for name in files)}
    assert not missing, f"docs name files that do not exist: {missing}"


def test_doc_files_found():
    # Guard against the glob silently matching nothing.
    names = {p.name for p in DOC_FILES}
    assert {"README.md", "DESIGN.md", "observability.md",
            "architecture.md"} <= names


#: One metrics-table row of docs/observability.md:
#: ``| `name` | type | unit | labels | description |``.
METRIC_ROW_RE = re.compile(
    r"^\| `([\w.]+)` \| (counter|gauge|histogram) \| ([^|]+?) \| "
    r"([^|]+?) \| ([^|]+?) \|$", re.MULTILINE)


def test_observability_doc_catalogues_every_metric():
    """One row per catalogued metric, and each row says what the
    catalogue says: type, unit, labels and description (backticks
    in the doc are formatting)."""
    from repro.obs import CATALOG_BY_NAME

    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    rows = METRIC_ROW_RE.findall(text)
    documented = {name: (kind, unit, labels, description.replace("`", ""))
                  for name, kind, unit, labels, description in rows}
    assert len(documented) == len(rows), "a metric has two rows"
    catalogued = {
        spec.name: (spec.kind, spec.unit,
                    ", ".join(f"`{label}`" for label in spec.labels)
                    or "—",
                    spec.description)
        for spec in CATALOG_BY_NAME.values()}
    drift = sorted(
        f"{name}:\n  doc:     {documented.get(name)}\n"
        f"  catalog: {catalogued.get(name)}"
        for name in set(documented) | set(catalogued)
        if documented.get(name) != catalogued.get(name))
    assert not drift, ("docs/observability.md and repro.obs.catalog "
                       "disagree:\n" + "\n".join(drift))


def test_observability_doc_tables_every_trace_event():
    """The event-name table must row every ``TRACE_EVENTS`` entry
    (as backticked code, i.e. an actual table row, not a mention)."""
    from repro.obs import TRACE_EVENTS

    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    undocumented = [name for name in TRACE_EVENTS
                    if f"`{name}`" not in text]
    assert not undocumented, (
        "trace events missing from docs/observability.md: "
        f"{undocumented}")


#: A backtick span holding exactly one CamelCase identifier — how
#: docs/memory.md names classes.  Dotted spans (`Diff.apply()`),
#: ALL-CAPS constants, and lowercase names deliberately don't match.
CLASS_TOKEN_RE = re.compile(r"`([A-Z][a-z][A-Za-z0-9]*)`")


def test_memory_doc_names_every_public_mem_class():
    """docs/memory.md must literally name (backticked) every public
    class ``repro.mem`` exports."""
    import inspect

    import repro.mem as mem

    text = (REPO_ROOT / "docs" / "memory.md").read_text()
    public_classes = [name for name in mem.__all__
                      if inspect.isclass(getattr(mem, name))]
    assert public_classes, "repro.mem exports no classes?"
    missing = [name for name in public_classes
               if f"`{name}`" not in text]
    assert not missing, (
        f"repro.mem classes undocumented in docs/memory.md: {missing}")


def test_every_class_named_in_memory_doc_exists():
    """...and the other direction: every backticked CamelCase name in
    docs/memory.md must resolve to a real attribute, so renames can't
    leave the doc pointing at ghosts."""
    import repro.core.api
    import repro.mem
    import repro.mem.instrument
    import repro.obs

    namespaces = (repro.mem, repro.mem.instrument, repro.obs,
                  repro.core.api)
    text = (REPO_ROOT / "docs" / "memory.md").read_text()
    tokens = set(CLASS_TOKEN_RE.findall(text))
    assert tokens, "no class names found in docs/memory.md?"
    ghosts = [token for token in tokens
              if not any(hasattr(ns, token) for ns in namespaces)]
    assert not ghosts, (
        f"docs/memory.md names nonexistent classes: {ghosts}")


#: ``tracer.emit("name", ...)`` with a literal event name.  Dynamic
#: names (Span's ``<name>.begin``/``<name>.end``) are intentionally
#: outside the vocabulary and don't match.
EMIT_RE = re.compile(r'tracer\.emit\(\s*"([^"]+)"')


def test_every_emitted_event_name_is_catalogued():
    from repro.obs import TRACE_EVENTS

    sources = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    assert sources, "source glob matched nothing"
    unknown = {}
    emitted = set()
    for path in sources:
        for name in EMIT_RE.findall(path.read_text()):
            emitted.add(name)
            if name not in TRACE_EVENTS:
                unknown.setdefault(
                    str(path.relative_to(REPO_ROOT)), []).append(name)
    assert not unknown, (
        f"emit sites using uncatalogued event names: {unknown}")
    # ... and the vocabulary carries no dead entries either.
    dead = sorted(set(TRACE_EVENTS) - emitted)
    assert not dead, f"TRACE_EVENTS entries never emitted: {dead}"
