"""Guard against surface that no production caller reaches.

Production code is ``src/``, ``scripts/`` and ``perfbench/``.  Three rules
hold for what ``src/triopoly`` defines, each with an allowlist below that
says why an entry is kept, and a fourth, with no allowlist, for what it
exports:

* Every function, class and method, and every module-level name assigned
  other than ``__all__``, must be read somewhere in production code or
  the code of README.md, other than by its own definition.  README names
  count only inside code spans and fenced blocks, so prose that uses a
  common word does not keep a function of that name alive.  Names are
  matched as names: a read anywhere (a load, an attribute, an import)
  reaches every definition of that name, so a method that shares its
  name with a live one is not flagged.  Assigning a name is not reading
  it, so a constant that outlives the code that read it is flagged.
* Every parameter with a default, of every function and method (nested
  ones too), must be passed by some production call: by keyword, by
  position, or through ``*args``/``**kwargs``.  A call reaches every
  definition with its callee's name; a class's ``__init__`` is called by
  the class name, and a method's ``self`` takes no position.  The
  generated constructor of a dataclass or NamedTuple counts too: each
  field with a default is a parameter, in field order, and a
  ``field(init=False)`` is none.
* Every field of a dataclass or NamedTuple must be read as an attribute
  (``obj.field``) in production code or the code of README.md.  Fields
  are matched by name too, so a field that shares its name with a live
  attribute (``box``, ``params``, ``seed``, ``tol``) is not flagged, and
  such fields must be checked by hand.
* Every ``__all__`` entry of a module must name something that module
  binds at its top level (a function, class, assignment or import).  A
  stale entry breaks only ``from module import *``, so nothing else
  would catch it.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "triopoly").glob("*.py"))

ALLOWED = {
    # the acceptance gate (tests/test_acceptance.py) imports or reads these
    "entropy_lower_bound",
    "exited",  # Itinerary.exited
    "interval_eval",
    "itinerary",  # symbolic.itinerary
    # ROADMAP items 4 and 9 build on the interval Jacobian; item 5 rewrites
    # the equilibrium classification
    "interval_jacobian",
    "classify_equilibrium",
    # test helpers: deleting them would only move the code into tests/
    "as_pair",  # Interval.as_pair
    "from_bounds",  # IntervalBox.from_bounds
    "contains_point",  # KSetEnclosure.contains_point
    "n_recorded",  # OrbitRecord.n_recorded
}

# module.qualified_name.parameter
ALLOWED_PARAMETERS = {
    # the lockstep-vs-per-sample oracle tests pass a small safety cube to put
    # rows on the safety-escape branch, which the default cube never reaches
    "dynamics.simulate.safety",
    "dynamics.lyapunov_spectrum.safety",
    "dynamics.bifurcation_scan.safety",
    # the acceptance gate passes the residual below which a word converges
    "symbolic.count_periodic_words.tol",
    # the acceptance gate checks the bound for more than two symbols
    "symbolic.entropy_lower_bound.m",
    # README's quick start passes it
    "certificate.Certificate.min_margin_over.ids",
    # ROADMAP item 5 rewrites the equilibrium classification
    "dynamics.classify_equilibrium.tol",
    # the entry point: the console script passes none, tests pass argv
    "cli.main.argv",
}

# module.Class.field
ALLOWED_FIELDS = {
    # the midplane-tie flag that the module docstring documents
    "symbolic.Itinerary.ties",
}


def _production_trees():
    for pattern in ("src/**/*.py", "scripts/*.py", "perfbench/*.py"):
        for path in ROOT.glob(pattern):
            yield ast.parse(path.read_text())


_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)


def _readme_code() -> str:
    """README.md's fenced blocks and inline code spans, one a line."""
    text = (ROOT / "README.md").read_text()
    return "\n".join(_FENCE.findall(text) + re.findall(r"`([^`]+)`", _FENCE.sub("", text)))


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------

def _defined_names() -> set:
    """Module-level functions, classes and assigned names, and the methods
    of those classes; dunder names are read by the language, not by name."""
    names = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    names.add(d.name)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("__")}


def _referenced_names() -> set:
    names = set(re.findall(r"\w+", _readme_code()))
    for tree in _production_trees():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.alias):
                names.add(n.name)
    return names


def test_every_unreached_definition_is_allowlisted():
    assert _defined_names() - _referenced_names() == ALLOWED


# ---------------------------------------------------------------------------
# defaulted parameters
# ---------------------------------------------------------------------------

def _defaulted_parameters() -> dict:
    """module.qualname.param -> (callee name, position in a call or None
    for a keyword-only parameter), for every parameter with a default."""
    out = {}

    def visit(node, module, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_record(child):
                    for i, (name, defaulted) in enumerate(_init_fields(child)):
                        if defaulted:
                            out[f"{module}.{prefix}{child.name}.__init__.{name}"] = (child.name, i)
                visit(child, module, f"{prefix}{child.name}.", True)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = 1 if in_class and not static else 0
                callee = prefix.rstrip(".").rsplit(".", 1)[-1] if child.name == "__init__" \
                    else child.name
                qual = f"{module}.{prefix}{child.name}"
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    out[f"{qual}.{positional[i].arg}"] = (callee, i - bound)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out[f"{qual}.{arg.arg}"] = (callee, None)
                visit(child, module, f"{prefix}{child.name}.", False)
            else:
                visit(child, module, prefix, in_class)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path.stem, "", False)
    return out


def _init_fields(cls: ast.ClassDef) -> list:
    """(name, has a default) of each parameter of a record's generated
    constructor, in order; a ``field(init=False)`` makes none."""
    out = []
    for n in cls.body:
        if not (isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)):
            continue
        v = n.value
        if isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id == "field":
            kw = {k.arg: k.value for k in v.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
            out.append((n.target.id, "default" in kw or "default_factory" in kw))
        else:
            out.append((n.target.id, v is not None))
    return out


def _calls() -> dict:
    """callee name -> [(positional count, passes *args, keywords), ...] of
    every production call; ``**kwargs`` counts as every keyword."""
    calls = {}
    for tree in _production_trees():
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            star = any(isinstance(a, ast.Starred) for a in n.args)
            keywords = {k.arg for k in n.keywords}
            calls.setdefault(name, []).append(
                (sum(not isinstance(a, ast.Starred) for a in n.args), star, keywords))
    return calls


def _unpassed_parameters() -> set:
    calls = _calls()

    def passed(callee, pos, param):
        return any(param in kw or None in kw or (pos is not None and (npos > pos or star))
                   for npos, star, kw in calls.get(callee, ()))

    return {key for key, (callee, pos) in _defaulted_parameters().items()
            if not passed(callee, pos, key.rsplit(".", 1)[1])}


def test_every_unpassed_default_is_allowlisted():
    assert _unpassed_parameters() == ALLOWED_PARAMETERS


# ---------------------------------------------------------------------------
# record fields
# ---------------------------------------------------------------------------

def _is_record(cls: ast.ClassDef) -> bool:
    def named(node, name):
        node = node.func if isinstance(node, ast.Call) else node
        return isinstance(node, ast.Name) and node.id == name

    return (any(named(d, "dataclass") for d in cls.decorator_list)
            or any(named(b, "NamedTuple") for b in cls.bases))


def _fields() -> set:
    out = set()
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and _is_record(cls):
                out |= {f"{path.stem}.{cls.name}.{n.target.id}" for n in cls.body
                        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
    return out


def _read_attributes() -> set:
    names = set(re.findall(r"\.(\w+)", _readme_code()))
    for tree in _production_trees():
        names |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return names


def test_every_unread_field_is_allowlisted():
    read = _read_attributes()
    assert {f for f in _fields() if f.rsplit(".", 1)[1] not in read} == ALLOWED_FIELDS


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _bound_and_exported(tree: ast.Module) -> tuple[set, list]:
    """The names a module binds at its top level, and its ``__all__``."""
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return bound, exported


def test_every_exported_name_is_bound():
    stale = set()
    for path in SOURCES:
        bound, exported = _bound_and_exported(ast.parse(path.read_text()))
        stale |= {f"{path.stem}.{name}" for name in exported if name not in bound}
    assert stale == set()
