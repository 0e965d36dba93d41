"""Every public function, class and method of `src/combanal` is reached
from the command table, or is named in NOT_REACHED with its reason, and
every private function is referred to somewhere in `src/combanal`.

The walk reads the sources with `ast` and imports nothing.  Its roots are
the `cmd_*` handlers, `cli.main`, `cli.dispatch`, `cli.build_parser` and
every module-level statement.  Its edges:
- a bare name resolves in its own module, or through a `from .m import f`
  or `from . import m as alias` at module level or inside the function;
- `alias.f` resolves to `m.f`;
- an attribute `.name` reaches every method of that name in any class, an
  over-approximation of dynamic dispatch;
- a reached class reaches its dunder methods, and a reached method its class.
Annotations are not edges: `from __future__ import annotations` leaves
them unevaluated.
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

import pytest

from combanal import cli

SRC = Path(cli.__file__).resolve().parent

# Public names that no command reaches, each with the reason it stays:
#   oracle:     a brute-force or second route a test compares a closed form against
#   paper fact: a value the paper states that only a test checks
#   bench:      read by bench/make_expected.py or bench/tracer.py
NOT_REACHED = {
    "compositions.count_by_essential_nodes": "oracle",
    "compositions.enumerate_multipartite_compositions": "oracle",
    "divisors.classical_totient": "oracle",
    "divisors.goldbach_recast_holds": "paper fact",
    "divisors.integers_with_potency": "oracle",
    "divisors.sigma": "bench",
    "exactcore.MultiPoly.coeff": "oracle",
    "exactcore.MultiPoly.constant_term": "oracle",
    "exactcore.MultiPoly.diff": "oracle",
    "exactcore.MultiPoly.truncate": "bench",
    "exactcore.MultiPoly.zero": "bench",
    "exactcore.poly_det_cofactor": "bench",
    "exactcore.poly_ring": "bench",
    "invariants.coefficients_from_roots": "oracle",
    "invariants.cubic_discriminant": "paper fact",
    "invariants.convert_coefficients": "paper fact",
    "invariants.hessian_seed": "paper fact",
    "invariants.new_seminvariant_dimension": "paper fact",
    "invariants.non_unitary_contains_count": "paper fact",
    "invariants.prior_product": "oracle",
    "invariants.quartic_invariant_i": "paper fact",
    "invariants.quartic_invariant_j": "paper fact",
    "invariants.seminvariant_dimension": "bench",
    "invariants.sum_of_squares_identity": "oracle",
    "masterthm.brute_force_derangements": "oracle",
    "masterthm.brute_force_rencontres": "oracle",
    "masterthm.derangement_matrix": "bench",
    "masterthm.linear_forms": "oracle",
    "masterthm.redundant_coefficient": "oracle",
    "partitions.cayley_p12_closed_form": "paper fact",
    "partitions.check_plane_partition": "oracle",
    "partitions.demorgan_u": "oracle",
    "partitions.enumerate_partitions": "oracle",
    "partitions.enumerate_plane_partitions": "bench",
    "partitions.is_perfect": "oracle",
    "partitions.is_subperfect": "oracle",
    "partitions.ordered_factorizations": "oracle",
    "partitions.prime_circulator": "paper fact",
    "partitions.xy_symmetric_cell_enumeration": "oracle",
    "patterns.Tetrahedron.face_edge_multisets": "paper fact",
    "patterns.achievable_square_contact_systems": "paper fact",
    "patterns.negate_profile": "paper fact",
    "probelect.cube_root_seat_rule": "paper fact",
    "probelect.sample_cumulative_exact": "oracle",
    "probelect.taagepera_exponent": "paper fact",
    "recreations.enumerate_contact_systems": "oracle",
}
REASONS = {"oracle", "paper fact", "bench"}
ROOTS = ("cli.main", "cli.dispatch", "cli.build_parser")


def _is_public(qualname: str) -> bool:
    return not any(part.startswith("_") for part in qualname.split("."))


def _local_imports(body: Iterable[ast.AST], names: Dict[str, str], modules: Dict[str, str]) -> None:
    """Record `from .m import f [as g]` (names: g -> "m.f") and `from . import
    m [as alias]` (modules: alias -> "m") found anywhere in `body`."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        modules[bound] = alias.name
                    else:
                        names[bound] = f"{node.module}.{alias.name}"


def _references(nodes: Iterable[ast.AST]):
    """The loaded bare names and the (value name or None, attribute)
    pairs in `nodes`, annotations left out."""
    names: Set[str] = set()
    attrs: Set[Tuple[object, str]] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            value = node.value.id if isinstance(node.value, ast.Name) else None
            attrs.add((value, node.attr))
        for field, child in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(child, ast.AST):
                stack.append(child)
            elif isinstance(child, list):
                stack.extend(c for c in child if isinstance(c, ast.AST))
    return names, attrs


def _run_at_def(node: ast.FunctionDef) -> List[ast.AST]:
    """What a def statement evaluates when it runs: decorators and defaults."""
    return node.decorator_list + node.args.defaults + [d for d in node.args.kw_defaults if d]


class _Module:
    def __init__(self, name: str, tree: ast.Module) -> None:
        self.name = name
        self.defs: Dict[str, ast.AST] = {}  # "f", "C", "C.m" -> its node
        self.names: Dict[str, str] = {}
        self.modules: Dict[str, str] = {}
        top = [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))]
        _local_imports(top, self.names, self.modules)
        self.run_at_import: List[ast.AST] = [
            s for s in top if not isinstance(s, (ast.Import, ast.ImportFrom))
        ]
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                self.defs[stmt.name] = stmt
                self.run_at_import += _run_at_def(stmt)
            elif isinstance(stmt, ast.ClassDef):
                self.defs[stmt.name] = stmt
                self.run_at_import += stmt.decorator_list + stmt.bases + stmt.keywords
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        self.defs[f"{stmt.name}.{item.name}"] = item
                        self.run_at_import += _run_at_def(item)
                    else:
                        self.run_at_import.append(item)


def reachability(sources: Dict[str, str]) -> Tuple[Set[str], Set[str]]:
    """(every definition, the reached ones) of the modules in `sources`,
    which maps a module name such as "cli" to its source text, as
    "module.name" and "module.Class.method"."""
    mods = {name: _Module(name, ast.parse(text)) for name, text in sources.items()}
    defined = {f"{m.name}.{d}" for m in mods.values() for d in m.defs}
    methods: Dict[str, Set[str]] = {}
    for d in defined:
        parts = d.split(".")
        if len(parts) == 3:
            methods.setdefault(parts[2], set()).add(d)

    def targets(mod: _Module, body: List[ast.AST], node=None) -> Set[str]:
        names, modules = dict(mod.names), dict(mod.modules)
        if node is not None:
            _local_imports([node], names, modules)
        bare, attrs = _references(body)
        out: Set[str] = set()
        for name in bare:
            if name in mod.defs:
                out.add(f"{mod.name}.{name}")
            elif name in names:
                out.add(names[name])
        for value, attr in attrs:
            if value in modules:
                out.add(f"{modules[value]}.{attr}")
            out |= methods.get(attr, set())
        return out & defined

    reached: Set[str] = set()
    todo: List[str] = [f"cli.{d}" for d in mods["cli"].defs if d.startswith("cmd_")]
    todo += [r for r in ROOTS if r in defined]
    for mod in mods.values():
        todo += targets(mod, mod.run_at_import)
    while todo:
        qual = todo.pop()
        if qual in reached:
            continue
        reached.add(qual)
        modname, local = qual.split(".", 1)
        mod = mods[modname]
        node = mod.defs[local]
        if isinstance(node, ast.ClassDef):
            todo += [
                f"{modname}.{local}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name.startswith("__")
            ]
        else:
            todo += targets(mod, node.body, node)
            if "." in local:
                todo.append(f"{modname}.{local.split('.')[0]}")
    return defined, reached


def unreached(sources: Dict[str, str]) -> Set[str]:
    """The public definitions of `sources` that the command table does not reach."""
    defined, reached = reachability(sources)
    return {d for d in defined - reached if _is_public(d.split(".", 1)[1])}


def _package_sources() -> Dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def test_every_public_name_is_reached_or_listed():
    missing = unreached(_package_sources()) - set(NOT_REACHED)
    assert not missing, f"reached by no command and not in NOT_REACHED: {sorted(missing)}"


def test_not_reached_holds_no_stale_entry():
    defined, reached = reachability(_package_sources())
    assert set(NOT_REACHED) <= defined, sorted(set(NOT_REACHED) - defined)
    assert not set(NOT_REACHED) & reached, sorted(set(NOT_REACHED) & reached)
    assert set(NOT_REACHED.values()) <= REASONS


def orphaned_private_functions(sources: Dict[str, str]) -> Set[str]:
    """The module-level and class-level `_name` functions of `sources` that
    no name or attribute in any of them refers to, dunders left out."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referred: Set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    private = set()
    for name, tree in trees.items():
        for stmt in tree.body:
            scope = [(f"{name}.", stmt)]
            if isinstance(stmt, ast.ClassDef):
                scope = [(f"{name}.{stmt.name}.", item) for item in stmt.body]
            for prefix, node in scope:
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.endswith("__")
                ):
                    private.add((prefix + node.name, node.name))
    return {qual for qual, local in private if local not in referred}


def test_every_private_function_is_referred_to():
    orphans = orphaned_private_functions(_package_sources())
    assert not orphans, f"private functions nothing in src/ refers to: {sorted(orphans)}"


def test_synthetic_orphaned_private_functions():
    lib = """
def _used(x):
    return x

def _left_behind(x):
    return x

class Box:
    def __init__(self):
        self._tidy()

    def _tidy(self):
        return _used(1)

    def _stale(self):
        pass
"""
    assert orphaned_private_functions({"lib": lib}) == {"lib._left_behind", "lib.Box._stale"}


def test_handlers_are_the_command_table():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    handlers = {
        s.name for s in tree.body if isinstance(s, ast.FunctionDef) and s.name.startswith("cmd_")
    }
    assert handlers == {f.__name__ for f in cli.RUN.values()}


SYNTHETIC_CLI = """
from . import lib as lb
from .lib import Shape

def cmd_area(args):
    return lb.area(Shape(args.side))

def main():
    pass

def dispatch(argv):
    pass

def build_parser():
    pass
"""

SYNTHETIC_LIB = """
TABLE = {"unit": lambda: square(1)}

class Shape:
    def __init__(self, side):
        self.side = side

    def scaled(self, k):
        return Shape(self.side * k)

def square(x):
    return x * x

def area(shape):
    return square(shape.side)

def orphan():
    return area(Shape(2))
"""


@pytest.mark.parametrize(
    "edit,expected",
    [
        ("", {"lib.orphan", "lib.Shape.scaled"}),
        ("x = orphan", {"lib.Shape.scaled"}),  # a module-level statement is a root
        ("GROW = lambda s: s.scaled(2)", {"lib.orphan"}),  # .scaled reaches every scaled
        ("def grow(s):\n    return s.scaled(2)", {"lib.orphan", "lib.grow", "lib.Shape.scaled"}),
    ],
)
def test_synthetic_module_reports_what_no_command_reaches(edit, expected):
    assert unreached({"cli": SYNTHETIC_CLI, "lib": SYNTHETIC_LIB + edit}) == expected
