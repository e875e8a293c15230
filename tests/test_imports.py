"""Every name a module under src/ imports is used there or exported in its
__all__, every function, class and method defined under src/ that tests
read is read by the program too, and only the attack table tells attack
kinds apart (checked with the stdlib ast module, as no linter is
required)."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level or nested import -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, those in quoted annotations and __all__ included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field\n"
              "import os.path\n"
              "from pathlib import Path\n"
              "def f(x: 'Path') -> int:\n"
              "    return dataclass\n")
    assert unused_imports(source) == [(1, "field"), (2, "os")]


def test_no_module_under_src_has_an_unused_import():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


# Definitions under src/ that the program itself does not read, kept on
# purpose; module-qualified name -> reason.
TEST_ONLY_ALLOWED = {
    "schema.batadal_schema": "the README's BATADAL layout; acceptance test a11 reads it",
    "simulator.AnomalyScenario.active": "tests/reference_simulator.py, the simulator's "
                                        "plain-loop reference, reads it",
}
PROGRAM = ("demos", "perfbench")     # besides src/ itself


def _definitions(tree: ast.Module):
    """(qualified name, bare name, is a method) of each top-level function
    and class and each method of a top-level class."""
    defs = ast.FunctionDef | ast.AsyncFunctionDef
    for node in tree.body:
        if isinstance(node, defs | ast.ClassDef):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name, True)
                        for item in node.body if isinstance(item, defs))


def _reads(sources) -> tuple[set[str], set[str]]:
    """(names read bare, names read as an attribute) in sources. A string
    without whitespace, such as a getattr name or a "module:Qual.name" wrap
    target, reads every identifier in it as both; an __all__ list reads
    nothing."""
    bare, attrs = set(), set()
    for source in sources:
        tree = ast.parse(source)
        exported = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                    for node in ast.walk(stmt.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exported and not re.search(r"\s", node.value)):
                words = set(re.findall(r"[A-Za-z_]\w*", node.value))
                bare |= words
                attrs |= words
    return bare, attrs


def read_only_by_tests(src: dict[str, str], program: list[str], tests: list[str]) -> list[str]:
    """The definitions in src (module -> source) that tests read and
    neither src nor the rest of the program does. Reads are matched by
    name: a method as an attribute, a function or class bare or as an
    attribute."""
    def read(name, method, reads):
        bare, attrs = reads
        return name in attrs or (not method and name in bare)

    by_program, by_tests = _reads([*src.values(), *program]), _reads(tests)
    return sorted(f"{module}.{qualname}" for module, source in src.items()
                  for qualname, name, method in _definitions(ast.parse(source))
                  if read(name, method, by_tests) and not read(name, method, by_program))


def test_the_check_finds_a_helper_only_tests_read():
    src = {"m": ("__all__ = ['helper', 'used']\n"
                 "def used(): pass\n"
                 "def helper(): pass\n"
                 "def dead(): pass\n"
                 "class C:\n"
                 "    def run(self): return used()\n"
                 "    def probe(self): pass\n"
                 "    def target(self): pass\n")}
    program = ["import m\n"
               "m.C().run()\n"
               "WRAP = 'm:C.target'\n"
               "probe = 'a local, not C.probe'\n"]
    tests = ["from m import C, helper\n"
             "helper()\n"
             "C().probe()\n"
             "C().target()\n"]
    assert read_only_by_tests(src, program, tests) == ["m.C.probe", "m.helper"]


def test_src_defines_nothing_that_only_tests_read():
    def sources(root):
        return [p.read_text(encoding="utf-8") for p in sorted(root.rglob("*.py"))]

    package = SRC / "concealab"
    src = {".".join(p.relative_to(package).with_suffix("").parts): p.read_text(encoding="utf-8")
           for p in sorted(package.rglob("*.py"))}
    program = [s for d in PROGRAM for s in sources(ROOT / d)]
    found = read_only_by_tests(src, program, sources(ROOT / "tests"))
    assert found == sorted(TEST_ONLY_ALLOWED), \
        f"read only from tests/: {sorted(set(found) - set(TEST_ONLY_ALLOWED))}"


ATTACK_KINDS = {"identity", "replay", "iterative", "learning"}


def kind_comparisons(source: str) -> list[int]:
    """The lines of ==, !=, in and not in comparisons against an attack-kind
    string, alone or in a literal tuple, list or set."""
    def kinds(node):
        items = node.elts if isinstance(node, ast.Tuple | ast.List | ast.Set) else [node]
        return any(isinstance(i, ast.Constant) and i.value in ATTACK_KINDS for i in items)

    ops = ast.Eq | ast.NotEq | ast.In | ast.NotIn
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare) and any(isinstance(op, ops) for op in node.ops)
                  and any(kinds(n) for n in [node.left, *node.comparators]))


def test_the_check_finds_an_attack_kind_comparison():
    source = ("if kind == 'replay': pass\n"
              "x = kind in ('identity', 'other')\n"
              "y = 'learning' != kind\n"
              "z = ATTACKS[kind].generator or kind == 'other'\n"
              "w = {'iterative': 1}\n")
    assert kind_comparisons(source) == [1, 2, 3]


def test_only_the_attack_table_tells_attack_kinds_apart():
    """An attack kind is picked by looking it up in evaluation.ATTACKS, never
    by comparing its name, in src/ and demos/."""
    found = [f"{path.relative_to(ROOT)}:{line}"
             for root in (SRC, ROOT / "demos") for path in sorted(root.rglob("*.py"))
             for line in kind_comparisons(path.read_text(encoding="utf-8"))]
    assert found == []
