"""Every function, class, method and dataclass field of the package is used
by the program.

A name defined in ``src/recoilsim`` must be referenced somewhere in
``src/recoilsim`` or ``scripts`` besides its own definition; a re-export in
``__init__.py`` does not count.  Top-level names count as referenced by any
use of the name, methods and dataclass fields only by an attribute read
(``x.name``).  Dunder methods are called by the language and are not
checked.  Names kept for the tests alone must be listed in ALLOWED with the
reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recoilsim"

ALLOWED = {
    "dark_state": "oracle of the STIRAP and Hamiltonian tests",
    "rb87": "the default atom the tests and acceptance criteria build",
    "with_arm_phase": "acceptance-test helper (criterion 6)",
    "scan_minimum_near": "acceptance-test helper (criterion 6)",
    "default_2d": "acceptance-test helper (criterion 8)",
    "pair_end_transfer": "the per-pair staircase of criterion 1",
    "adiabatic": "the adiabaticity flag of criterion 2",
    "target": "the pair's target state, whose fidelity criteria 2 and 4 "
              "measure",
    "pairs": "the ladder's pairs, whose targets criterion 4 measures",
    "steps": "the RK4 step count that criterion 10 pins",
    "loss": "decay loss per member, checked by the propagation tests",
    "dropped_total": "dropped population, checked by the plan tests",
    "spread": "momentum spread, checked by the basis tests",
}


def definitions():
    """(name, 'module.qualname', is_method) of every top-level function and
    class and every method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, f"{path.stem}.{node.name}", False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and \
                            not item.name.startswith("__"):
                        yield item.name, \
                            f"{path.stem}.{node.name}.{item.name}", True
                    if isinstance(item, ast.AnnAssign) and \
                            _is_dataclass(node):
                        name = item.target.id
                        yield name, f"{path.stem}.{node.name}.{name}", True


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def references():
    """Names used as plain names, and names read as attributes."""
    names, attributes = set(), set()
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in files + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def test_no_name_is_used_by_the_tests_alone():
    names, attributes = references()
    defined = list(definitions())
    unused = [where for name, where, method in defined
              if name not in ALLOWED and name not in attributes
              and (method or name not in names)]
    assert not unused, f"defined but never used by the program: {unused}"
    assert set(ALLOWED) <= {name for name, _, _ in defined}, \
        "the allowlist names a definition that no longer exists"
