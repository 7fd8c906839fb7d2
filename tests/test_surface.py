"""Every definition in `src/spinwreath` is reached from the command line.

The walk starts at `cli.main` and at every module-level statement, and
follows names and attributes through the bodies of what it reaches:

- a bare name reaches the top-level definition it denotes in its module,
  directly or through a `from .module import name`;
- an attribute `C.name` on a name that denotes a class with a method
  `name` reaches that method;
- any other attribute `x.name` reaches every method called `name` and every
  top-level definition called `name` (the walk has no types, so it keeps
  every candidate);
- a reached class reaches its base classes, its decorators, the statements
  of its body and its dunder methods, which Python calls implicitly.

A top-level function, class or non-dunder method that the walk does not
reach fails the test, unless its docstring says "Test oracle": a reference
implementation that only tests run against the code under test.

Further checks pin where `Cyc` may appear: the twisted space's operators
(`vertex`) and the cocycle (`lattice`) are integer-valued and import nothing
from `scalars`, `vertex` applies no Fock operator, `fock`, `classfun` and
`qtable` name no `Cyc`, and the oracle (`spingroup`, `suites`) imports none;
`GammaData` stores no `Cyc`, takes its values as integers, and `gammadata`
names one only in the built-ins' representation matrices.  One more pins that Fock
monomials have one numbering and one set of factor tables, both owned by
`fock.FockContext`, and another that the brute-force oracle has one element
form, `spingroup.SpinLaw`'s packed one.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "spinwreath")
ORACLE_MARK = "Test oracle"


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


class Surface:
    """Definitions of the package, keyed by (module, qualified name)."""

    def __init__(self, package):
        self.defs = {}         # (module, qualname) -> def/class node
        self.imports = {}      # module -> {local name: (module, name)}
        self.by_name = {}      # bare name -> keys of top-level defs and methods
        self.module_stmts = []  # (module, statement) outside any def or class
        for fname in sorted(os.listdir(package)):
            if fname.endswith(".py"):
                module = fname[:-3]
                with open(os.path.join(package, fname)) as fh:
                    self._scan(module, ast.parse(fh.read(), fname))

    def _add(self, key, node):
        self.defs[key] = node
        self.by_name.setdefault(key[1].rsplit(".", 1)[-1], []).append(key)

    def _scan(self, module, tree):
        imports = self.imports.setdefault(module, {})
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                source = stmt.module or "__init__"
                for alias in stmt.names:
                    imports[alias.asname or alias.name] = (source, alias.name)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add((module, stmt.name), stmt)
            elif isinstance(stmt, ast.ClassDef):
                self._add((module, stmt.name), stmt)
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add((module, f"{stmt.name}.{item.name}"), item)
            else:
                self.module_stmts.append((module, stmt))

    def _resolve(self, module, name):
        """The top-level definition a bare name denotes in `module`, if any."""
        seen = set()
        while (module, name) not in self.defs:
            target = self.imports.get(module, {}).get(name)
            if target is None or target in seen:
                return None
            seen.add(target)
            module, name = target
        return module, name

    def _refs(self, module, node, skip_body_defs=False):
        """Definitions a node's names and attributes reach."""
        out = []
        nodes = [node]
        if skip_body_defs:  # a class: its methods are walked one by one
            nodes = ([*node.bases, *node.keywords, *node.decorator_list]
                     + [s for s in node.body
                        if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))])
        for top in nodes:
            for sub in ast.walk(top):
                if isinstance(sub, ast.Name):
                    key = self._resolve(module, sub.id)
                    if key is not None:
                        out.append(key)
                elif isinstance(sub, ast.Attribute):
                    out.extend(self._attribute(module, sub))
        return out

    def _attribute(self, module, node):
        if isinstance(node.value, ast.Name):
            owner = self._resolve(module, node.value.id)
            if owner is not None:
                method = (owner[0], f"{owner[1]}.{node.attr}")
                if method in self.defs:
                    return [method]
        return self.by_name.get(node.attr, ())

    def reached(self):
        todo = [("cli", "main")]
        for module, stmt in self.module_stmts:
            todo.extend(self._refs(module, stmt))
        seen = set()
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            module, qualname = key
            node = self.defs[key]
            if isinstance(node, ast.ClassDef):
                todo.extend(self._refs(module, node, skip_body_defs=True))
                todo.extend((module, f"{qualname}.{item.name}") for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _dunder(item.name))
            else:
                if "." in qualname:  # a method needs its class
                    todo.append((module, qualname.rsplit(".", 1)[0]))
                todo.extend(self._refs(module, node))
        return seen

    def unreached(self):
        reached = self.reached()
        out = []
        for key, node in self.defs.items():
            if key in reached or _dunder(key[1].rsplit(".", 1)[-1]):
                continue
            if ORACLE_MARK in (ast.get_docstring(node) or ""):
                continue
            out.append(f"{key[0]}.{key[1]}")
        return sorted(out)

    def oracles(self):
        return sorted(f"{m}.{q}" for (m, q), node in self.defs.items()
                      if ORACLE_MARK in (ast.get_docstring(node) or ""))


def test_every_definition_is_reached_from_the_cli():
    assert Surface(PACKAGE).unreached() == []


def test_the_walk_sees_an_unreached_definition(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .util import used\n\n"
        "def main():\n    return used()\n")
    (tmp_path / "util.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.v = 1\n"
        "    def kept(self):\n        return self.v\n"
        "    def dropped(self):\n        return 0\n"
        "    @staticmethod\n    def make():\n        return Box()\n\n"
        "class Other:\n    def make(self):\n        return 0\n\n"
        "def used():\n    return Box.make().kept()\n\n"
        "def unused():\n    return 0\n\n"
        "def reference():\n    \"\"\"Test oracle: recomputes used().\"\"\"\n    return 1\n")
    surface = Surface(str(tmp_path))
    assert surface.unreached() == ["util.Box.dropped", "util.Other", "util.Other.make",
                                   "util.unused"]
    assert surface.oracles() == ["util.reference"]


def _imported_modules(path):
    """The modules a file imports from, relative ones as `.name`."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
    return out


def test_the_twisted_space_imports_nothing_from_scalars():
    for name in ("vertex.py", "lattice.py"):
        imported = _imported_modules(os.path.join(PACKAGE, name))
        assert imported, name
        assert not {m for m in imported if m.rsplit(".", 1)[-1] == "scalars"}, name


def test_the_row_engine_calls_no_cyc_fock_operator():
    # `vertex` may import `create` (perfbench checks the binding) but builds
    # its rows on its own integer tables, never through Fock operators
    with open(os.path.join(PACKAGE, "vertex.py")) as fh:
        tree = ast.parse(fh.read())
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert "_lean_row" in called  # the walk sees the engine's calls
    assert not called & {"annihilate", "create", "FockVector"}


def _functions_naming(path, names):
    """The functions and methods of a module whose bodies mention any of the
    names (annotations aside)."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)}
            if used & names:
                out.add(node.name)
    return out


def _names(path):
    """Every name and attribute a module's code mentions, docstrings aside."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return ({sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
            | {sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}
            | {alias.name for sub in ast.walk(tree) if isinstance(sub, ast.ImportFrom)
               for alias in sub.names})


def test_fock_vectors_hold_integers_and_name_no_cyc():
    # a scalar handed in is read onto Gamma's value axis (`GammaData.on_axis`),
    # and a pairing's result is one canonical (den, numerators) value
    from spinwreath import classfun, fock, qtable, scalars, vertex
    from spinwreath.classfun import ch, sigma_rho
    from spinwreath.gammadata import VirtualChar, builtin
    from spinwreath.partitions import multipartitions

    path = os.path.join(PACKAGE, "fock.py")
    assert not _names(path) & {"Cyc", "cyc_from_numerators", "CoeffLike"}
    assert fock.FockVector.__slots__ == ("ctx", "den", "nums", "_dual")
    assert not hasattr(fock.FockVector, "_numerators") and not hasattr(fock, "_over_2_top")
    assert not hasattr(fock, "_coeff_key") and not hasattr(vertex, "_lean_from_fock")
    assert not hasattr(vertex, "_prow")
    assert not hasattr(fock, "_ZERO") and not hasattr(fock, "_scalar")
    assert not hasattr(scalars, "weighted_dot") and not hasattr(scalars, "_numerators")
    assert not hasattr(qtable.CharRow, "as_classfun")
    assert classfun.SpinClassFun.__slots__ == ("gamma", "n", "den", "nums", "_dual")
    g, _ = builtin("cyclic:4")
    ctx = fock.FockContext(g, VirtualChar.trivial(g))
    assert not hasattr(ctx, "_row_cache") and ctx.pair_row((1, 0, 0, 0)) == (1, 0, 0, 0)
    images = [ch(ctx, sigma_rho(g, rho)) for rho in multipartitions(3, 4, "OP")]
    coeffs = [c for v in images for c in v.nums.values()]
    assert all(type(v.den) is int for v in images)
    assert all(len(c) == 2 and all(type(x) is int for x in c) for c in coeffs)
    assert any(c[1] for c in coeffs)  # irrational coefficients occur
    assert all(type(m) is int for v in images for m in v.nums)  # keyed by monomial index


def _attributes_in(path, name):
    """The attribute names that the body of the function `name` mentions."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    node = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_fock_owns_the_one_monomial_numbering_and_its_factor_tables():
    # `FockContext` numbers each monomial once and holds the tables that
    # remove one factor, insert one and merge two; the row engine and the
    # table side read those and define no numbering or factor operation
    from spinwreath import fock, vertex
    from spinwreath.gammadata import VirtualChar, builtin

    assert {"index", "basis", "removals", "insert", "merge"} <= set(vars(fock.FockContext))
    g, _ = builtin("cyclic:3")
    t = vertex.TwistContext(g, VirtualChar.trivial(g))
    assert t.fock.monos == [()] and t.fock.index(()) == fock.VACUUM
    assert not {"index", "monos", "_index", "_ann_table"} & (set(vars(t))
                                                             | set(vars(vertex.TwistContext)))
    assert not hasattr(vertex, "_ann") and not hasattr(vertex, "_ann_table")
    assert not hasattr(fock, "_merge") and not hasattr(fock, "_sorted_insert")
    # (`spingroup` keeps a `merge` table of Clifford mask parities, no monomial)
    operations = {"index", "basis", "removals", "insert", "merge", "_merge", "_sorted_insert",
                  "_ann", "_panel_monomials"}
    tables = {"monos", "_index", "_removals", "_ann_table"}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py") and fname != "fock.py":
            with open(os.path.join(PACKAGE, fname)) as fh:
                tree = ast.parse(fh.read())
            defined = {node.name for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            stored = {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
            assert not defined & operations and not stored & tables, fname
    # the row engine's product with q_n and the table's X_lambda vector take
    # indices as they are, with no conversion between numberings
    assert not _attributes_in(os.path.join(PACKAGE, "vertex.py"), "_q_product") & {"monos", "index"}
    assert not _attributes_in(os.path.join(PACKAGE, "qtable.py"),
                              "x_lambda_vector") & {"monos", "index"}


def test_class_functions_and_tables_build_cyc_only_at_the_edges():
    # no function of classfun or qtable names a `Cyc`: the failure messages
    # print values with `scalars.value_repr`, and the oracle compares
    # canonical values; the oracle's modules import nothing named `Cyc`
    from spinwreath import classfun, scalars
    cyc = {"Cyc", "cyc_from_numerators"}
    assert _functions_naming(os.path.join(PACKAGE, "classfun.py"), cyc) == set()
    assert _functions_naming(os.path.join(PACKAGE, "qtable.py"), cyc) == set()
    for name in ("spingroup.py", "suites.py"):
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert not {n for n in imported if "cyc" in n.lower()}, name
    assert not hasattr(scalars, "cyc_from_numerators")
    assert not hasattr(scalars.Cyc, "from_doc")
    assert not hasattr(classfun.SpinClassFun, "value")


def test_gamma_stores_its_values_once_as_integers():
    # `GammaData` keeps each character value as canonical (den, numerators)
    # on its value axis and holds no `Cyc`; values are handed in as integers
    # (`ValueLike`), and `gammadata` names `Cyc` only in the `ConcreteGroup`
    # matrices (`_mat_mul`, the built-ins and the `Matrix` annotation)
    from spinwreath.gammadata import builtin
    from spinwreath.scalars import Cyc

    def leaves(x):
        if isinstance(x, (list, tuple)):
            for y in x:
                yield from leaves(y)
        elif isinstance(x, dict):
            for k, y in x.items():
                yield from leaves(k)
                yield from leaves(y)
        else:
            yield x

    for name in ("trivial", "cyclic:6", "klein4", "quaternion8"):
        g, _ = builtin(name)
        g.value_numerators, g.linear_twists  # the cached derived forms too
        assert all(type(x) is int for x in leaves(g.chars)), name
        assert all(type(x) is int for x in leaves(g.value_numerators)), name
        assert not any(isinstance(x, Cyc) for x in leaves(list(vars(g).values()))), name
    assert _functions_naming(os.path.join(PACKAGE, "gammadata.py"), {"Cyc"}) == {
        "_mat_mul", "_builtin_trivial", "_builtin_cyclic", "_builtin_klein4",
        "_builtin_quaternion8"}
    from spinwreath import gammadata, qtable
    assert not hasattr(qtable, "_pretty")
    assert not hasattr(gammadata.GammaData, "_normalize")
    assert not hasattr(gammadata, "_order_clash")
    assert not hasattr(Cyc, "pretty")


def test_the_oracle_has_one_element_form():
    # `SpinLaw`'s packed (g, k, mask, permutation index) is the oracle's only
    # element form (the readable one and its conversions live in the tests),
    # and the Clifford trace is the law's, on the law's sign tables
    from spinwreath.spingroup import SpinLaw

    with open(os.path.join(PACKAGE, "spingroup.py")) as fh:
        tree = ast.parse(fh.read())
    top = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"SpinElement", "unpack"} & defined
    assert "clifford_trace" not in top and "clifford_trace" in vars(SpinLaw)
