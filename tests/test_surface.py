"""No test-only code in `src/`: every module-level function and class of
the package is reached from the program's own roots.

The scan parses `src/transit` with `ast` and follows references by module
and name, so `oracle.stable_transitions` and
`coordination.stable_transitions` are two definitions, each reached or not
on its own.  A bare name resolves to its module's own definition or to what
the module imported under it (`from .games import Game`); an attribute of an
imported module resolves to that module's definition (`degrees.covers`).  A
reached function or class reaches everything named in its body, methods
included.  The roots are:

- the command line, `cli.main`;
- module-level code: every name that a module's top-level statements,
  decorators and default values evaluate on import;
- the names `transit/__init__.py` exports, the library surface;
- what the benchmark imports from the package, and its traced `TARGETS`;
- `ALLOWED`, each entry with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "transit"
BENCH = ROOT / "perfbench"

# (module, name) -> why it stays although no other root reaches it; a name
# of None allows the whole module
ALLOWED = {
    ("oracle", None): "the brute-force reference: tests and perfbench read it, "
    "and `transit oracle` checks against it",
    ("decomposition", None): "the decomposition bounds wait for a `decompose` verb",
    ("congestion", "verify_merge_lemma"): "the merge welfare lemma waits for a verb",
    ("congestion", "random_congestion_game"): "the merge lemma's instances, read with it",
    ("congestion", "has_monotone_subadditive_totals"): "the merge lemma's hypothesis, "
    "read with it",
    ("coordination", "observation5_violations"): "observation 5 waits for a verb",
    ("coordination", "stable_transitions"): "tests/test_acceptance.py imports it",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _imports(tree: ast.Module, package: str, modules, exports=None) -> dict[str, tuple]:
    """Alias -> ("module", m) or ("name", m, name), for imports from the
    package; `package` is "" inside it (relative imports) and "transit"
    outside.  A name imported from the package itself that is none of its
    `modules` is one of its `exports`, what `__init__` imported."""
    out: dict[str, tuple] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if package:
            if node.module == package:
                source = None
            elif node.module and node.module.startswith(package + "."):
                source = node.module[len(package) + 1 :]
            else:
                continue
        elif node.level != 1:
            continue
        else:
            source = node.module
        for alias in node.names:
            name = alias.asname or alias.name
            if source is None and alias.name in modules:
                out[name] = ("module", alias.name)
            elif source is None:
                out[name] = exports[alias.name]
            else:
                out[name] = ("name", source, alias.name)
    return out


def _references(nodes, imports: dict[str, tuple], local: set[str], module: str | None):
    """(module, name) of every package definition the nodes name."""
    out = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if module is not None and node.id in local:
                    out.add((module, node.id))
                elif node.id in imports and imports[node.id][0] == "name":
                    out.add(imports[node.id][1:])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                alias = imports.get(node.value.id)
                if alias and alias[0] == "module":
                    out.add((alias[1], node.attr))
    return out


def _is_definition(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _module_level(tree: ast.Module) -> list:
    """What a module evaluates on import, apart from function and class
    bodies: its other statements, decorators, defaults and class bases."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if _is_definition(node):
            out += node.decorator_list
            if isinstance(node, ast.ClassDef):
                out += node.bases + node.keywords
            else:
                out += node.args.defaults + [d for d in node.args.kw_defaults if d]
        else:
            out.append(node)
    return out


def _bench_roots(modules, exports) -> set:
    roots = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports = _imports(tree, "transit", modules, exports)
        roots |= {v[1:] for v in imports.values() if v[0] == "name"}
        roots |= _references([tree], imports, set(), None)
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                            for t in node.targets)):
                for module, dotted in ast.literal_eval(node.value).values():
                    roots.add((module.removeprefix("transit."), dotted.split(".")[0]))
    return roots


def _scan():
    """(every definition, what the roots other than ALLOWED reach, what
    ALLOWED reaches)."""
    modules = _modules()
    exports = _imports(modules["__init__"], "", modules)
    roots = {("cli", "main")} | {v[1:] for v in exports.values()}
    roots |= _bench_roots(modules, exports)
    edges = {}
    for module, tree in modules.items():
        imports = _imports(tree, "", modules, exports)
        local = {node.name for node in tree.body if _is_definition(node)}
        for node in tree.body:
            if _is_definition(node):
                edges[(module, node.name)] = _references(node.body, imports, local, module)
        roots |= _references(_module_level(tree), imports, local, module)

    def reach(start):
        seen, todo = set(), list(start)
        while todo:
            ref = todo.pop()
            if ref in edges and ref not in seen:
                seen.add(ref)
                todo += edges[ref]
        return seen

    allowed = {d for d in edges if d in ALLOWED or (d[0], None) in ALLOWED}
    return set(edges), reach(roots), reach(allowed)


def test_every_definition_is_reached_from_a_root():
    definitions, reached, by_allowed = _scan()
    unreached = sorted(f"{m}.{n}" for m, n in definitions - reached - by_allowed)
    assert unreached == [], f"only tests reach {unreached}"


def test_every_allowlist_entry_names_a_definition_no_other_root_reaches():
    definitions, reached, _ = _scan()
    modules = {m for m, _ in definitions}
    for module, name in ALLOWED:
        if name is None:
            assert module in modules, module
        else:
            assert (module, name) in definitions, (module, name)
            assert (module, name) not in reached, f"{module}.{name} is reached; drop it"


def test_the_scan_is_module_qualified():
    # a name defined in two modules is two definitions, reached one by one
    definitions, reached, _ = _scan()
    assert ("oracle", "stable_transitions") in definitions
    assert ("coordination", "stable_transitions") in definitions
    assert ("oracle", "stable_transitions") in reached  # through `transit oracle`
    assert ("coordination", "stable_transitions") not in reached
