"""Checks on the package source, with the standard library's ``ast``: no
module imports a name it never uses, every private module-level function is
referenced somewhere in the package, every public name (``__all__``) is
referenced by a package module, a demo or the acceptance suite, every public
method and property of a package class is read as ``x.name`` by one of those
or by ``perfbench/`` (a read counts for one class when x is a method's
``self`` or a parameter annotated with a package class, and for every class
that defines ``name`` when the source does not say x's class), no module
uses ``assert`` (runtime invariants raise, since ``python -O`` strips
asserts), and each shared rule
has one owner: only ``market_data._read_only`` assigns
``<array>.flags.writeable`` (every value type freezes its arrays through it),
only ``clustering.annualised_sharpe`` calls ``.std(`` or ``.var(`` (so
``np.std(`` and ``np.var(`` too: one sample deviation), only
``backtest.drawdown`` calls ``np.maximum.accumulate``, only
``market_data._square`` checks ``np.allclose(m, m.T, ...)`` or averages
``(m + m.T) / 2`` (every matrix it admits is exactly symmetric), only
``market_data._check_real`` calls ``math.isfinite`` (every real setting
is checked there, and the table test of ``test_market_data`` holds each
real's caller to it) and only ``schedule_qubo._check_width`` compares a
width with the 2^W memory guard ``MAX_WIDTH``, only ``market_data._check_count`` calls ``hasattr(x,
"__index__")`` (every count is checked there, and the table test of
``test_market_data`` holds each count's caller to it), and only
``market_data._frozen_array`` chooses an array's memory layout (passes
``order=`` or calls ``compress``, ``asfortranarray`` or
``ascontiguousarray``). Only ``cli.entry``, the process entry point, changes
the garbage collector (calls ``gc.freeze``, ``gc.disable`` or
``gc.set_threshold``): a library module must never change an importer's
collector. Only ``market_data._ticker_names`` coerces a list of names
(``tuple(str(t) for t in ...)``) or tests a ``tickers`` for repeats
(``len(set(tickers))``): every ticker list is checked there. Only
``allocation._weight_array`` compares a ``.tickers`` (every
weights-on-panel call checks alignment through it), and only
``market_data._frozen_integers`` passes ``int`` or ``np.uint8`` as
``_frozen_array``'s dtype (every integer cast is checked before it
truncates). The artifact format has one owner too: only ``cli._write_json``
calls ``json.dump`` or ``json.dumps`` (every JSON artifact is written
there), and only ``cli._read_artifact`` calls ``json.load`` or
``json.loads`` (every artifact read is checked against its schema there).
The CSV format has one owner too: only ``market_data`` imports ``csv``, at
module level (every CSV file is read or written there).
Every ``open(`` is binary or passes ``encoding="utf-8"``, so no file
depends on the locale."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quantfolio"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a public name must have a caller: the package itself, the demos and
# the acceptance suite, not the unit tests that only exercise it
CALLERS = [*MODULES, *sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
# a class member may also be read by the benchmark harness, which drives the kernels
MEMBER_CALLERS = [*CALLERS, *sorted((ROOT / "perfbench").glob("*.py"))]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def assert_lines(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def owned(tree: ast.AST, hit, owner: str = "<module>") -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every node below ``tree`` that ``hit`` accepts."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if hit(node):
            found.append((owner, node.lineno))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        found += owned(node, hit, inner)
    return found


def assigns_writeable(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "writeable"
        and isinstance(sub.value, ast.Attribute) and sub.value.attr == "flags"
        for target in targets
        for sub in ast.walk(target)
    )


def writeable_assignments(tree: ast.AST) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every assignment to ``<x>.flags.writeable``."""
    return owned(tree, assigns_writeable)


def calls_method(*names: str, of: str | None = None):
    """Accepts a call ``<x>.name(...)`` of one of ``names``, or
    ``<x>.of.name(...)`` given ``of``."""
    def hit(node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        func = node.func
        return func.attr in names and (
            of is None or isinstance(func.value, ast.Attribute) and func.value.attr == of
        )
    return hit


def transposes(mt: ast.AST, m: ast.AST) -> bool:
    """Whether the expression ``mt`` is ``m.T``."""
    return isinstance(mt, ast.Attribute) and mt.attr == "T" and ast.dump(mt.value) == ast.dump(m)


def checks_symmetry(node: ast.AST) -> bool:
    """Accepts ``<x>.allclose(m, m.T, ...)`` for any expression ``m``."""
    return calls_method("allclose")(node) and len(node.args) >= 2 and transposes(node.args[1], node.args[0])


def averages_with_transpose(node: ast.AST) -> bool:
    """Accepts ``(m + m.T) / 2`` (or ``/ 2.0``) for any expression ``m``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.Constant) and node.right.value == 2
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
            and transposes(node.left.right, node.left.left))


def compares(name: str, bare: bool = True):
    """Accepts a comparison with ``<x>.name``, or with ``name`` itself unless
    ``bare`` is False, on either side."""
    def hit(node: ast.AST) -> bool:
        return isinstance(node, ast.Compare) and any(
            bare and isinstance(side, ast.Name) and side.id == name
            or isinstance(side, ast.Attribute) and side.attr == name
            for side in (node.left, *node.comparators)
        )
    return hit


def probes(name: str):
    """Accepts a call ``hasattr(x, "name")``."""
    def hit(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr"
                and len(node.args) == 2 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == name)
    return hit


def casts_to_integers(node: ast.AST) -> bool:
    """Accepts a call ``_frozen_array(values, dtype)`` (or ``dtype=``) whose
    dtype expression names ``int`` or ``<x>.uint8``."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_frozen_array"):
        return False
    dtypes = node.args[1:] + [kw.value for kw in node.keywords if kw.arg == "dtype"]
    return any(
        isinstance(sub, ast.Name) and sub.id == "int"
        or isinstance(sub, ast.Attribute) and sub.attr == "uint8"
        for dtype in dtypes
        for sub in ast.walk(dtype)
    )


LAYOUT_CALLS = {"compress", "asfortranarray", "ascontiguousarray"}


def sets_layout(node: ast.AST) -> bool:
    """Accepts a call that passes ``order=`` or calls one of ``LAYOUT_CALLS``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in LAYOUT_CALLS or any(kw.arg == "order" for kw in node.keywords)


def calls_of(module: str, *names: str):
    """Accepts a call ``<module>.<name>(...)`` of one of ``names``."""
    def hit(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in names
                and isinstance(node.func.value, ast.Name) and node.func.value.id == module)
    return hit


def imports(module: str):
    """Accepts ``import module`` (alone, among others or renamed) and
    ``from module import ...``."""
    def hit(node: ast.AST) -> bool:
        return (isinstance(node, ast.Import) and any(a.name.split(".")[0] == module
                                                     for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == module)
    return hit


def calls_name(node: ast.AST, name: str) -> bool:
    """Whether ``node`` is a call ``name(...)`` of the bare name ``name``."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def states_ticker_rule(node: ast.AST) -> bool:
    """Accepts ``tuple(str(x) for x in ...)`` or ``list(...)`` of such a
    comprehension (a coercion of names to ``str``), and ``len(set(tickers))``
    or ``len(set(<x>.tickers))`` (a test for repeated tickers)."""
    if calls_name(node, "len"):
        held = node.args[0].args if node.args and calls_name(node.args[0], "set") else ()
        return bool(held) and "tickers" in (getattr(held[0], "id", None),
                                            getattr(held[0], "attr", None))
    return ((calls_name(node, "tuple") or calls_name(node, "list")) and bool(node.args)
            and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
            and calls_name(node.args[0].elt, "str"))


def opens_locale_text(node: ast.AST) -> bool:
    """Accepts a call ``open(...)`` or ``<x>.open(...)`` whose mode is not a
    binary literal and that passes no ``encoding="utf-8"``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "open":
        return False
    keywords = {kw.arg: kw.value for kw in node.keywords}
    mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
    binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
    encoding = keywords.get("encoding")
    utf8 = isinstance(encoding, ast.Constant) and encoding.value == "utf-8"
    return not (binary or utf8)


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every bare name read and every attribute name, anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def public_names(tree: ast.Module) -> list[str]:
    """The strings of the module's ``__all__`` list."""
    return [
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for elt in node.value.elts
    ]


def public_members(tree: ast.Module) -> list[tuple[str, str]]:
    """``(class, name)`` of every public method and property of every class."""
    return [
        (cls.name, node.name)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def class_names(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def member_reads(tree: ast.AST, classes) -> set[tuple[str | None, str]]:
    """``(class, name)`` of every ``<x>.name`` read in ``tree``. The class is
    the enclosing class when x is a method's ``self``, the annotation when x
    is a parameter annotated with one of ``classes``, and None (any class)
    otherwise. A parameter of an inner function hides an outer one."""
    found = set()

    def visit(node: ast.AST, receivers: dict, owner: str | None) -> None:
        if isinstance(node, ast.Attribute):
            receiver = receivers.get(node.value.id) if isinstance(node.value, ast.Name) else None
            found.add((receiver, node.attr))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            receivers = dict(receivers)
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None:
                    ann = arg.annotation
                    named = ann.id if isinstance(ann, ast.Name) and ann.id in classes else None
                    receivers[arg.arg] = owner if owner and arg.arg == "self" else named
        inner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            visit(child, receivers, inner)

    visit(tree, {}, None)
    return found


def unread(members, trees, classes) -> list[str]:
    """``class.name`` of the ``members`` that none of ``trees`` reads as
    ``<x>.name`` on that class or on a receiver of unknown class
    (``member_reads``); ``classes`` are the classes an annotation can name."""
    read = set().union(*(member_reads(tree, classes) for tree in trees))
    return [f"{cls}.{name}" for cls, name in members if not {(cls, name), (None, name)} & read]


def uncalled(names, trees) -> list[str]:
    """The ``names`` that none of ``trees`` references."""
    everywhere = set().union(*(referenced_names(tree) for tree in trees))
    return [name for name in names if name not in everywhere]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    unused = imported_names(tree) - referenced_names(tree)
    assert not unused, f"{path.name} imports unused name(s): {', '.join(sorted(unused))}"


def test_every_private_function_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    assert trees, f"no modules under {PACKAGE}"
    everywhere = set().union(*(referenced_names(tree) for tree in trees.values()))
    unreferenced = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in everywhere
    ]
    assert not unreferenced, f"private functions nothing references: {', '.join(unreferenced)}"


def test_every_public_name_has_a_caller():
    public = public_names(parse(PACKAGE / "__init__.py"))
    assert public, f"no __all__ in {PACKAGE / '__init__.py'}"
    unused = uncalled(public, [parse(path) for path in CALLERS])
    assert not unused, f"public names no module, demo or acceptance test uses: {', '.join(unused)}"


def test_every_public_member_has_a_caller():
    trees = [parse(path) for path in MODULES]
    members = [member for tree in trees for member in public_members(tree)]
    assert members, f"no classes under {PACKAGE}"
    classes = set().union(*(class_names(tree) for tree in trees))
    unused = unread(members, [parse(path) for path in MEMBER_CALLERS], classes)
    assert not unused, ("public methods and properties no module, demo, acceptance test or "
                        f"perfbench script reads: {', '.join(unused)}")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_asserts(path):
    lines = assert_lines(parse(path))
    assert not lines, f"{path.name} uses assert on line(s) {lines}: raise instead"


def test_only_read_only_marks_arrays_read_only():
    stray = [
        f"{path.name}:{owner}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, line in writeable_assignments(parse(path))
        if (path.name, owner) != ("market_data.py", "_read_only")
    ]
    assert not stray, f"flags.writeable assigned outside market_data._read_only: {', '.join(stray)}"


# each formula or check that several modules need, and the one function that owns it
OWNERS = {
    "std": (calls_method("std", "var"), ("clustering.py", "annualised_sharpe")),
    "running_peak": (calls_method("accumulate", of="maximum"), ("backtest.py", "drawdown")),
    "symmetry": (checks_symmetry, ("market_data.py", "_square")),
    "symmetric_part": (averages_with_transpose, ("market_data.py", "_square")),
    "finite": (calls_of("math", "isfinite"), ("market_data.py", "_check_real")),
    "width_guard": (compares("MAX_WIDTH"), ("schedule_qubo.py", "_check_width")),
    "count": (probes("__index__"), ("market_data.py", "_check_count")),
    "layout": (sets_layout, ("market_data.py", "_frozen_array")),
    "collector": (calls_of("gc", "freeze", "disable", "set_threshold"), ("cli.py", "entry")),
    "ticker_alignment": (compares("tickers", bare=False), ("allocation.py", "_weight_array")),
    "integer_cast": (casts_to_integers, ("market_data.py", "_frozen_integers")),
    "artifact_read": (calls_of("json", "load", "loads"), ("cli.py", "_read_artifact")),
    "artifact_write": (calls_of("json", "dump", "dumps"), ("cli.py", "_write_json")),
    "csv_format": (imports("csv"), ("market_data.py", "<module>")),
    "ticker_names": (states_ticker_rule, ("market_data.py", "_ticker_names")),
}


@pytest.mark.parametrize("rule", OWNERS)
def test_each_rule_has_one_owner(rule):
    hit, owner = OWNERS[rule]
    found = [
        ((path.name, fn), line)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn, line in owned(parse(path), hit)
    ]
    assert owner in {where for where, _ in found}, f"{owner} no longer owns {rule}"
    stray = [f"{name}:{fn}:{line}" for (name, fn), line in found if (name, fn) != owner]
    assert not stray, f"{rule} written outside {':'.join(owner)}: {', '.join(stray)}"


def test_every_open_is_binary_or_utf8():
    stray = [
        f"{path.name}:{fn}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn, line in owned(parse(path), opens_locale_text)
    ]
    assert not stray, f"open() in the locale's encoding: {', '.join(stray)}"


def test_checks_catch_dead_code():
    tree = ast.parse(
        "import os\nfrom json import dumps as d\n\ndef _dead(x):\n    assert x\n    return 1\n"
        "\nclass Box:\n    def freeze(self, a):\n        a.flags.writeable = False\n"
        "\ndef stats(r, c, m):\n    sd = r.std(ddof=1)\n    peak = np.maximum.accumulate(c)\n"
        "    ok = np.allclose(m, m.T, atol=0.0) and np.allclose(m.diagonal(), 0.0)\n"
        "    return np.minimum.accumulate(c), np.allclose(m, c.T), (m + m.T) / 2.0, (m + c.T) / 2\n"
        "\ndef charge(p, cost_c):\n    return math.isfinite(cost_c), np.isfinite(p), p.isfinite()\n"
        "\ndef fits(w, q):\n    return w > MAX_WIDTH or q.MAX_WIDTH == 3 or 2 ** MAX_WIDTH\n"
        "\ndef write(fh, blob):\n    json.dump(blob, fh)\n    return json.dumps(blob), fh.dumps(blob)\n"
        "\ndef layout(a, ok):\n    b = np.array(a, order='F').reshape(-1)\n"
        "    return a.compress(ok, axis=1), np.asfortranarray(b), ascontiguousarray(b), a[:, ok]\n"
        "\ndef read(path):\n    a = open(path), open(path, 'rb'), open(path, mode='wb')\n"
        "    b = open(path, 'w', encoding='utf-8'), p.open(encoding='latin-1')\n"
        "    return a, b, open(path, 'r', newline='')\n"
        "\ndef warm(cache):\n    gc.freeze()\n    gc.enable()\n    return gc.collect(), cache.freeze()\n"
        "\ndef align(w, p, tickers):\n    return w.tickers != p.tickers or tickers is None\n"
        "\ndef counts(h, b):\n"
        "    return _frozen_array(h, int), _frozen_array(b, dtype=np.uint8), _frozen_array(h, float)\n"
        "\ndef parse(fh, text):\n    return json.load(fh), json.loads(text), fh.load(), np.load(fh)\n"
        "\ndef spread(r):\n    return r.var(ddof=1), np.std(r), np.var(r), r.variance()\n"
        "\ndef whole(n, x):\n"
        "    return hasattr(n, '__index__'), hasattr(x, '__len__'), getattr(n, '__index__')\n"
        "\ndef names(ts, bits, tickers, p):\n    a = tuple(str(t) for t in ts), list([str(t) for t in ts])\n"
        "    return a, len(set(tickers)), len(set(p.tickers)), len(set(ts)), len(ts), set(tickers), "
        "''.join(str(b) for b in bits), tuple(t for t in ts)\n"
        "\n__all__ = ['stats', 'fits', 'Box']\n"
    )
    assert imported_names(tree) - referenced_names(tree) == {"os", "d"}
    assert "_dead" not in referenced_names(tree)
    assert assert_lines(tree) == [5]
    assert writeable_assignments(tree) == [("freeze", 10)]
    assert {rule: owned(tree, hit) for rule, (hit, _) in OWNERS.items()} == {
        "std": [("stats", 13), ("spread", 52), ("spread", 52), ("spread", 52)],
        "running_peak": [("stats", 14)], "symmetry": [("stats", 15)],
        "symmetric_part": [("stats", 16)],
        "finite": [("charge", 19)],
        "width_guard": [("fits", 22), ("fits", 22)],
        "count": [("whole", 55)],
        "layout": [("layout", 29), ("layout", 30), ("layout", 30), ("layout", 30)],
        "collector": [("warm", 38)],
        "ticker_alignment": [("align", 43)],
        "integer_cast": [("counts", 46), ("counts", 46)],
        "artifact_read": [("parse", 49), ("parse", 49)],
        "artifact_write": [("write", 25), ("write", 26)],
        "csv_format": [],
        "ticker_names": [("names", 58), ("names", 58), ("names", 59), ("names", 59)],
    }
    assert owned(ast.parse("import csv as c\nfrom csv import writer\nimport io, csv\n"
                           "from . import csv\n\ndef f():\n    import csv.x\n"),
                 imports("csv")) == [("<module>", 1), ("<module>", 2), ("<module>", 3), ("f", 7)]
    assert owned(tree, opens_locale_text) == [("read", 33), ("read", 34), ("read", 35)]
    assert public_names(tree) == ["stats", "fits", "Box"]
    assert uncalled(public_names(tree), [tree, ast.parse("stats(1, 2, 3)\nBox().freeze(a)\n")]) == ["fits"]
    members = ast.parse("class Box:\n    @property\n    def size(self):\n        return 1\n\n"
                        "    def fill(self):\n        return self._seal()\n\n"
                        "    def _seal(self):\n        return len(self)\n\n"
                        "    def __len__(self):\n        return 0\n\n"
                        "class Bag:\n    def size(self):\n        return 2\n\n"
                        "    def fill(self):\n        return self.size()\n")
    found = public_members(members)
    assert found == [("Box", "size"), ("Box", "fill"), ("Bag", "size"), ("Bag", "fill")]
    classes = class_names(members)
    assert classes == {"Box", "Bag"}

    def dead(source: str) -> list[str]:
        return unread(found, [ast.parse(source)], classes)

    # a bare name is not a read of the member
    assert dead("size = 3\nbox.fill()\n") == ["Box.size", "Bag.size"]
    # a read on a self or on a parameter annotated with a package class keeps
    # only that class's member alive; any other receiver keeps every class's
    assert unread(found, [members], classes) == ["Box.size", "Box.fill", "Bag.fill"]
    assert dead("def f(box: Box, n: int):\n    return box.size, n.fill\n") == ["Bag.size"]
    assert dead("def f(bag: Bag):\n    return bag.fill\n") == ["Box.size", "Box.fill", "Bag.size"]
    assert dead("def f(box: Box):\n    return g(box).fill, box.x.size\n") == []
    assert dead("def f(box: Box):\n    return lambda box: box.size\n") == ["Box.fill", "Bag.fill"]
    assert dead("def f(box: Box):\n    def g(self):\n        return self.size\n") == [
        "Box.fill", "Bag.fill"]
    assert dead("class Box:\n    def grow(self, box: Bag):\n        return self.size, box.fill\n"
                ) == ["Box.fill", "Bag.size"]
    assert dead("def f(box: Box):\n    return 0\n\nbox.size\n") == ["Box.fill", "Bag.fill"]
    assert dead("") == ["Box.size", "Box.fill", "Bag.size", "Bag.fill"]
