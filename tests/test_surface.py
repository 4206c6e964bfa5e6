"""Guard against surface that no production caller reaches.

Every function, class and method defined in ``src/triopoly``, and every
module-level name assigned there other than ``__all__``, must be read
somewhere in ``src/``, ``scripts/``, ``perfbench/`` or README.md, other
than by its own definition, unless the allowlist below holds it and says
why.  Names are matched as names: a read anywhere (a load, an attribute,
an import) reaches every definition of that name, so a method that shares
its name with a live one is not flagged.  Assigning a name is not reading
it, so a constant that outlives the code that read it is flagged.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALLOWED = {
    # the acceptance gate (tests/test_acceptance.py) imports or reads these
    "entropy_lower_bound",
    "exited",  # Itinerary.exited
    "interval_eval",
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


def _defined_names() -> set:
    """Module-level functions, classes and assigned names, and the methods
    of those classes; dunder names are read by the language, not by name."""
    names = set()
    for path in (ROOT / "src" / "triopoly").glob("*.py"):
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
    names = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for pattern in ("src/**/*.py", "scripts/*.py", "perfbench/*.py"):
        for path in ROOT.glob(pattern):
            for n in ast.walk(ast.parse(path.read_text())):
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, ast.alias):
                    names.add(n.name)
    return names


def test_every_unreached_definition_is_allowlisted():
    assert _defined_names() - _referenced_names() == ALLOWED
