"""Reachability lint: every public name in ``src/repro`` is reached
from a root, or is on ``ALLOW`` with a reason.

The roots are what a user or the record actually runs: ``repro.cli``,
``examples/``, ``benchmarks/`` (``ledger/`` included) and the tests
``docs/claims.md`` cites.  From them this walks a static ``ast`` name
graph.  A node is a module body, a class body (dunder methods
included), a function or a method; it *uses* the identifiers and
attribute names its code mentions, and a use of a name reaches every
definition of that name (so a call through a base class reaches each
override).  An ``import`` or an ``__all__`` string is a re-export, not
a use: it runs the module's body and reaches nothing by name.  Being
name-based the walk over-approximates — what it reports has no
spelling of its name anywhere a root can get to.  The limit is the
bare name: a method call is not resolved to its receiver's type, so
``path.encode()`` on a ``str`` reaches every method named ``encode``,
and a method that shares its name with a ``str`` or ``bytes`` method
can be dead and still pass.  ``test_single_accounting_path.py`` keeps
such a method deleted once it is found.

The same walk over calls keeps ``core/config.py`` honest: every field
of its dataclasses is one that some call in ``src/repro``,
``benchmarks/`` or ``examples/`` sets, or is on ``FIELD_EXEMPT``.
And every metric in ``obs/catalog.py`` is one that a driver, a
``docs/claims.md`` row or a tier-1 test names.
"""

import ast
import fnmatch
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: ``path-under-src/repro::Qualified.name`` (fnmatch) -> why it stays
#: although no root reaches it.  An entry is a root itself (what it
#: uses is reached).  The fix for a new orphan is to delete it, not to
#: list it here.
ALLOW = {
    # Model definitions that inlined hot paths and property tests are
    # checked against.
    "core/config.py::OverheadConfig.message_cycles":
        "per-message cost model; Node.send inlines it",
    "mem/diffs.py::Diff.overlaps":
        "write-write conflict, as the diff property tests state it",
    "mem/diffs.py::ranges_word_count":
        "run-list size Diff.word_count and RDIF lengths must equal",
    "mem/wire.py::encoded_size":
        "RDIF size model encode_diff's output length must equal",
    "apps/cholesky.py::sequential_cholesky":
        "dense oracle for the symbolic and the DSM factorization",
    # Documented library surface with no in-repo driver.
    "trace/*":
        "repro.trace persistence API: save, load, replay a trace",
}


class _Code(ast.NodeVisitor):
    """One graph node: visiting statements collects the identifiers,
    attribute names and imported modules they mention (nested defs
    belong to the code that holds them)."""

    def __init__(self, where: str, qualname: str, public: bool,
                 module: str, is_package: bool):
        self.name = f"{where}::{qualname}"
        self.public = public
        self.module, self.is_package = module, is_package
        self.names, self.modules = set(), set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_arg(self, node):
        # A pytest fixture is requested by parameter name.
        self.names.add(node.arg)
        self.generic_visit(node)

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets):
            self.generic_visit(node)

    def visit_Import(self, node):
        self.modules.update(alias.name for alias in node.names)

    def visit_ImportFrom(self, node):
        base = node.module or ""
        if node.level:
            parts = self.module.split(".")
            keep = len(parts) - node.level + self.is_package
            base = ".".join(parts[:keep] + ([base] if base else []))
        # ``from pkg import name`` may import the module pkg.name.
        self.modules.add(base)
        self.modules.update(f"{base}.{alias.name}"
                            for alias in node.names)


def _parse(path: Path, where: str, module: str):
    """``(module body, {name: [definitions]})`` of one file.  Only
    defs directly in a module or class body are nodes of their own."""
    defs = {}

    def block(owner, public, statements, prefix):
        for node in statements:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or prefix and node.name.startswith("__")):
                owner.visit(node)       # dunders run with the class
                continue
            code = _Code(where, prefix + node.name,
                         public and not node.name.startswith("_"),
                         module, owner.is_package)
            defs.setdefault(node.name, []).append(code)
            # Decorators and bases run with the enclosing body.
            for expr in node.decorator_list + getattr(node, "bases", []):
                owner.visit(expr)
            if isinstance(node, ast.ClassDef):
                block(code, code.public, node.body,
                      f"{prefix}{node.name}.")
            else:
                code.generic_visit(node)

    body = _Code(where, "<module>", False, module,
                 path.name == "__init__.py")
    block(body, True, ast.parse(path.read_text()).body, "")
    return body, defs


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _repo_roots():
    """``{file: names}`` of what runs the package; the name ``None``
    stands for everything in the file."""
    roots = {path: {None} for path in
             [SRC / "cli.py", SRC / "__main__.py"]
             + sorted((ROOT / "examples").glob("*.py"))
             + sorted((ROOT / "benchmarks").rglob("*.py"))}
    cited = re.findall(r"`((?:tests|benchmarks)/[\w/]+\.py)(?:::(\w+))?",
                       (ROOT / "docs" / "claims.md").read_text())
    assert cited, "docs/claims.md cites no test"
    for name, test in cited:
        assert (ROOT / name).exists(), f"docs/claims.md cites {name}"
        roots.setdefault(ROOT / name, set()).add(test or None)
    return roots


def unreached(src: Path = SRC, roots=None, allow=()):
    """Public definitions of the package at ``src`` that no root
    reaches, as ``path::Qual.name`` strings.  A definition matching
    an ``allow`` pattern is a root itself."""
    bodies, defs = {}, {}

    def add(found):
        for name, codes in found.items():
            defs.setdefault(name, []).extend(codes)

    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)
        bodies[module], found = _parse(
            path, path.relative_to(src).as_posix(), module)
        add(found)
    package = [code for codes in defs.values() for code in codes]

    stack = [code for code in package
             if any(fnmatch.fnmatchcase(code.name, pattern)
                    for pattern in allow)]
    for path, wanted in (_repo_roots() if roots is None
                         else roots).items():
        if src in path.parents:
            stack.append(bodies[_module_name(path, src)])
            continue
        body, found = _parse(path, path.name, "")
        add(found)      # the file's own helpers and fixtures, by name
        stack.append(body)
        stack.extend(code for name, codes in found.items()
                     for code in codes
                     if None in wanted or name in wanted)

    reached = set()
    while stack:
        code = stack.pop()
        if code in reached:
            continue
        reached.add(code)
        for name in code.names:
            stack.extend(defs.get(name, ()))
        for module in code.modules:
            # Importing a.b.c runs a, a.b and a.b.c.
            parts = module.split(".")
            stack.extend(bodies[".".join(parts[:end])]
                         for end in range(1, len(parts) + 1)
                         if ".".join(parts[:end]) in bodies)
    return sorted(code.name for code in package
                  if code.public and code not in reached)


def test_every_public_name_is_reached_or_allow_listed():
    orphans = unreached(allow=ALLOW)
    assert not orphans, (
        "no root (repro.cli, examples/, benchmarks/, the tests "
        "docs/claims.md cites) reaches these public names — delete "
        "them, or add an ALLOW entry with a reason:\n  "
        + "\n  ".join(orphans))


def test_allow_table_is_short_reasoned_and_live():
    assert len(ALLOW) <= 7
    assert all(len(reason) > 20 for reason in ALLOW.values())
    orphans = unreached()
    stale = [pattern for pattern in ALLOW
             if not fnmatch.filter(orphans, pattern)]
    assert not stale, (
        f"ALLOW entries that excuse nothing (reached, or gone): {stale}")


def test_the_lint_catches_an_unreferenced_public_def(tmp_path):
    """A throw-away package: the root calls ``used`` and builds a
    ``Box``; ``orphan`` and ``Box.lonely`` have no caller, and neither
    the import nor ``__all__`` counts as one."""
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "__init__.py").write_text(
        "from pkg.mod import orphan, used\n"
        "__all__ = ['orphan', 'used']\n")
    (src / "mod.py").write_text(
        "def used():\n    return _helper()\n\n"
        "def _helper():\n    return 1\n\n"
        "def orphan():\n    return used()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = self.size()\n"
        "    def size(self):\n        return 1\n"
        "    def lonely(self):\n        return self.n\n")
    root = tmp_path / "main.py"
    root.write_text("from pkg import orphan, used\n"
                    "from pkg.mod import Box\n"
                    "print(used(), Box())\n")
    roots = {root: {None}}
    assert unreached(src, roots) == ["mod.py::Box.lonely",
                                     "mod.py::orphan"]
    assert unreached(src, roots, allow=["mod.py::orphan"]) == [
        "mod.py::Box.lonely"]


#: ``Class.field`` of ``core/config.py`` -> why it stays although no
#: driver sets it.
FIELD_EXEMPT = {
    "MachineConfig.gc_barrier_interval": "ROADMAP 6(a)",
}


def config_fields(config: Path = SRC / "core" / "config.py"):
    """``{class: [field, ...]}`` of every dataclass in ``config``, in
    declaration (positional) order."""
    fields = {}
    for node in ast.parse(config.read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(deco)
                for deco in node.decorator_list):
            fields[node.name] = [
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)]
    return fields


def unset_config_fields(src: Path = SRC,
                        drivers=(ROOT / "benchmarks", ROOT / "examples")):
    """``Class.field`` names no call under ``src`` or ``drivers`` sets.
    A call sets a field when it is the field's own class (by keyword
    or by position; the factories in the config module are such
    calls) or any ``.replace(...)`` naming it by keyword."""
    fields = config_fields(src / "core" / "config.py")
    found = set()
    for root in (src, *drivers):
        for path in sorted(root.rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = getattr(func, "id", getattr(func, "attr", None))
                keywords = {kw.arg for kw in call.keywords if kw.arg}
                if name in fields:
                    positional = [arg for arg in call.args
                                  if not isinstance(arg, ast.Starred)]
                    keywords.update(fields[name][:len(positional)])
                    found.update(f"{name}.{kw}" for kw in keywords)
                elif name == "replace":
                    found.update(f"{cls}.{kw}" for cls, names
                                 in fields.items()
                                 for kw in keywords & set(names))
    return sorted(f"{cls}.{name}" for cls, names in fields.items()
                  for name in names if f"{cls}.{name}" not in found)


def test_every_config_field_is_set_by_a_driver():
    """A config field exists because some run varies it: a value no
    driver sets is a module constant next to the code that reads it
    (docs/architecture.md "The cost model")."""
    unset = unset_config_fields()
    orphans = [name for name in unset if name not in FIELD_EXEMPT]
    assert not orphans, (
        "no call in src/repro, benchmarks/ or examples/ sets these "
        "config fields — make each a module constant, or delete it "
        "with its capability:\n  " + "\n  ".join(orphans))
    stale = sorted(set(FIELD_EXEMPT) - set(unset))
    assert not stale, (
        f"FIELD_EXEMPT entries a driver now sets, or gone: {stale}")


#: Where naming a catalogued metric counts as reading it: the drivers
#: that turn registry values into output, and the tier-1 tests.
#: Golden JSON is not a reader.
METRIC_READERS = (SRC / "analysis", SRC / "cli.py", SRC / "lab",
                  SRC / "core" / "metrics.py", ROOT / "benchmarks",
                  ROOT / "examples", ROOT / "tests")


def unread_metrics(names, readers=METRIC_READERS,
                   claims: Path = ROOT / "docs" / "claims.md"):
    """The ``names`` that no ``.py`` file under ``readers`` and no
    table row of ``claims`` spells out whole (``net.wire_cycles``
    inside ``net.wire_cycles_total`` does not count)."""
    texts = [line for line in claims.read_text().splitlines()
             if line.startswith("|")]
    for reader in readers:
        paths = [reader] if reader.is_file() else reader.rglob("*.py")
        texts += [path.read_text() for path in sorted(paths)
                  if path != Path(__file__)]
    text = "\n".join(texts)
    return [name for name in names
            if not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)",
                             text)]


def test_every_metric_is_read():
    """A metric exists because someone reads it: a catalogued name no
    driver, claims row or test names is dead weight in every dump."""
    from repro.obs.catalog import CATALOG_BY_NAME

    unread = unread_metrics(CATALOG_BY_NAME)
    assert not unread, (
        "no driver, docs/claims.md row or tier-1 test names these "
        "metrics — delete each with its emit site:\n  "
        + "\n  ".join(unread))


def test_the_metric_lint_catches_an_unread_metric(tmp_path):
    driver = tmp_path / "driver.py"
    driver.write_text('registry.total("net.read_total")\n'
                      'registry.total("net.longer_total")\n')
    claims = tmp_path / "claims.md"
    claims.write_text("| a claim | `net.claimed_total` |\n"
                      "Prose naming net.prose_total is no row.\n")
    names = ["net.read_total", "net.claimed_total", "net.prose_total",
             "net.longer", "net.unread_total"]
    assert unread_metrics(names, readers=(driver,), claims=claims) == [
        "net.prose_total", "net.longer", "net.unread_total"]
