"""Every function, class, method, dataclass field, property and parameter
of the package is used by the program.

* A name defined in ``src/recoilsim`` must be referenced somewhere in
  ``src/recoilsim`` or ``scripts`` besides its own definition; a re-export
  in ``__init__.py`` does not count.  Top-level names count as referenced
  by any use of the name, methods and dataclass fields only by an
  attribute read (``x.name``).  Dunder methods are called by the language
  and are not checked.
* Every dataclass field and property must be read by package code while
  small runs of all six plans go through ``cli.main``.  Reads are recorded
  per class, so a member does not pass because another class has one of
  the same name.  Reads by the dataclass machinery (``replace``, ``__eq__``),
  by a ``__post_init__`` check or by a test do not count.
* Every parameter of every function and lambda must be read by its body.
* Every parameter with a default must be passed by some call in
  ``src/recoilsim`` or ``scripts``, else its default is a constant.

Names kept for the tests alone, or read only on a path the small runs do
not take, must be listed in ALLOWED, by module and qualified name, with
the reason; defaults only the tests pass, in UNSET, with the reason.
"""

import ast
import dataclasses
import importlib
import json
import math
import sys
from pathlib import Path

from recoilsim import cli
from recoilsim.patterngen import gear_silhouette, to_image
from recoilsim.pgmio import write_pgm

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recoilsim"

ALLOWED = {
    "hamiltonian.dark_state": "oracle of the STIRAP and Hamiltonian tests",
    "params.rb87": "the default atom the tests and acceptance criteria build",
    "plans.RamseyResult.with_arm_phase": "acceptance-test helper "
                                         "(criterion 6)",
    "plans.RamseyResult.pre_final": "the closing amplitudes the Ramsey "
                                    "plan tests check",
    "fringes.scan_minimum_near": "acceptance-test helper (criterion 6)",
    "fringes.GridSpec.default_2d": "acceptance-test helper (criterion 8)",
    "plans.Figure3Result.pair_end_transfer": "the per-pair staircase of "
                                             "criterion 1",
    "pulses.PulsePair.adiabatic": "the adiabaticity flag of criterion 2",
    "pulses.PulsePair.target": "the pair's target state, whose fidelity "
                               "criteria 2 and 4 measure",
    "pulses.SequencePlan.pairs": "the ladder's pairs, whose targets "
                                 "criterion 4 measures",
    "propagate.EvolveResult.steps": "the RK4 step count that criterion 10 "
                                    "pins",
    "propagate.EvolveResult.loss": "decay loss per member, checked by the "
                                   "propagation tests",
    "interferometer.PlanResult.dropped_total": "dropped population, checked "
                                               "by the plan tests",
    "basis.Observables.spread": "momentum spread, checked by the basis "
                                "tests",
    "interferometer.StageRecord.dropped": "a stage's dropped population, "
                                          "checked by the batching test",
    "params.InternalLevel.is_excited": "read once at import, to build "
                                       "hamiltonian._EXCITED",
}

UNSET = {
    "propagate.evolve_plan(dt_factor)": "the acceptance tests run at 64 "
                                        "(ROADMAP item 2)",
    "fringes.scan_minimum_near(center_hz)": "acceptance-test helper "
                                            "(criterion 6)",
    "hamiltonian.dark_state(basis)": "oracle of the STIRAP and Hamiltonian "
                                     "tests",
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


def members():
    """(class, name, 'module.Class.name') of every dataclass field and
    property of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"recoilsim.{path.stem}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or \
                    cls.__module__ != module.__name__:
                continue
            names = [f.name for f in dataclasses.fields(cls)] \
                if dataclasses.is_dataclass(cls) else []
            names += [name for name, value in vars(cls).items()
                      if isinstance(value, property)]
            for name in names:
                yield cls, name, f"{path.stem}.{cls.__name__}.{name}"


def test_no_name_is_used_by_the_tests_alone():
    names, attributes = references()
    defined = list(definitions())
    unused = [where for name, where, method in defined
              if where not in ALLOWED and name not in attributes
              and (method or name not in names)]
    assert not unused, f"defined but never used by the program: {unused}"
    known = {where for _, where, _ in defined} | \
        {where for _, _, where in members()}
    assert set(ALLOWED) <= known, \
        "the allowlist names a definition that no longer exists"


def _small_configs(tmp_path):
    """One small document per plan, and a second, 2-D one for fringes."""
    gear = tmp_path / "gear.pgm"
    write_pgm(gear, to_image(gear_silhouette(16)))
    arm = {"amplitude_re": 0.5, "amplitude_im": 0.1, "phase_rad": 0.3}
    return [
        {"plan": "figure3", "params": {"n_pairs": 2, "samples_per_pair": 2}},
        {"plan": "split1d", "params": {"ladder_n": 1, "drift1_s": 0.1},
         "output": {"grid_pitch_m": 10e-9, "grid_samples": 256}},
        {"plan": "ramsey", "params": {"ladder_n": 1},
         "output": {"scan_periods": 3, "points_per_period": 20}},
        {"plan": "split2d",
         "params": {"p_pulses": 4, "p_reverse": 8, "q_pulses": 4,
                    "q_reverse": 8, "drift1_s": 0.03},
         "output": {"grid_pitch_m": 2e-9, "grid_samples": 512}},
        {"plan": "fringes",
         "params": {"arms": [{**arm, "n_z": 0}, {**arm, "n_z": 100}]}},
        {"plan": "fringes",
         "params": {"arms": [{**arm, "n_z": 0, "n_x": 0},
                             {**arm, "n_z": 20, "n_x": 20}]},
         "output": {"dims": 2, "grid_pitch_m": 2e-9, "grid_samples": 256}},
        {"plan": "pattern", "params": {"input_pgm": str(gear)}},
    ]


def test_every_field_and_property_is_read_by_the_program(tmp_path,
                                                         monkeypatch):
    package = str(PACKAGE)
    reads = set()

    def recording_getattribute(self, name):
        caller = sys._getframe(1).f_code
        if caller.co_filename.startswith(package) and \
                caller.co_name != "__post_init__":
            reads.add((type(self), name))
        return object.__getattribute__(self, name)

    checked = list(members())
    for cls in {cls for cls, _, _ in checked}:
        monkeypatch.setattr(cls, "__getattribute__", recording_getattribute)
    for k, doc in enumerate(_small_configs(tmp_path)):
        path = tmp_path / f"{doc['plan']}-{k}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out",
                         str(tmp_path / "out")]) == 0, doc["plan"]
    monkeypatch.undo()

    unread = [where for cls, name, where in checked
              if (cls, name) not in reads and where not in ALLOWED]
    assert not unread, f"never read by the program: {unread}"
    stale = [where for cls, name, where in checked
             if (cls, name) in reads and where in ALLOWED]
    assert not stale, f"read by the program, yet in the allowlist: {stale}"


def _unread_parameters(node):
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
              + [args.vararg, args.kwarg] if a is not None]
    body = node.body if isinstance(node.body, list) else [node.body]
    read = {n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p for p in params if p not in read and p not in ("self", "cls")]


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                name = getattr(node, "name", "<lambda>")
                unread += [f"{path.stem}.{name}({p})"
                           for p in _unread_parameters(node)]
    assert not unread, f"parameters the body never reads: {unread}"


def _program():
    """The parameters with a default of every def in the package, and every
    call in the package and ``scripts``.

    A parameter is ('module.qualname(param)', param, names, position): the
    names a call of its def goes by (its own; for an ``__init__``, also its
    class's and those of the package's subclasses of it), and its index
    among a call's positional arguments, None when keyword-only.  A call
    is (name, positional, starred, keywords): the called name or
    attribute, what each leading positional argument passes, the index of
    its first ``*args`` (or None), and what each keyword passes (None for
    a ``**kwargs``).  An argument passes the parameter of the enclosing
    package def that it names bare, whose own default it forwards, and
    None otherwise."""
    files = sorted(PACKAGE.glob("*.py")) + \
        sorted((ROOT / "scripts").glob("*.py"))
    trees = [(path, ast.parse(path.read_text())) for path in files]
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    params, calls = [], []

    def descends(name, ancestor):
        return name == ancestor or any(descends(b, ancestor)
                                       for b in bases.get(name, ()))

    def defaulted(node, where, cls):
        names = {node.name}
        if cls is not None and node.name == "__init__":
            names |= {c for c in bases if descends(c, cls)}
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        offset = 0 if cls is None else 1     # self or cls
        for k, arg in enumerate(positional[first:], first - offset):
            yield f"{where}({arg.arg})", arg.arg, names, k
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{where}({arg.arg})", arg.arg, names, None

    def call(node, scope):
        def passes(arg):
            return scope.get(arg.id) if isinstance(arg, ast.Name) else None
        name = getattr(node.func, "id", None) or \
            getattr(node.func, "attr", None)
        starred = next((k for k, a in enumerate(node.args)
                        if isinstance(a, ast.Starred)), None)
        return (name, [passes(a) for a in node.args[:starred]], starred,
                {k.arg: passes(k.value) for k in node.keywords})

    def visit(node, module, prefix, cls, scope):
        """``module`` is None in ``scripts``, whose defaults go unchecked."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", child.name,
                      scope)
            elif isinstance(child, ast.FunctionDef):
                own = [] if module is None else list(defaulted(
                    child, f"{module}.{prefix}{child.name}", cls))
                params.extend(own)
                visit(child, module, f"{prefix}{child.name}.", None,
                      {param: where for where, param, _, _ in own})
            else:
                if isinstance(child, ast.Call):
                    calls.append(call(child, scope))
                visit(child, module, prefix, cls, scope)

    for path, tree in trees:
        visit(tree, path.stem if path.parent == PACKAGE else None, "", None,
              {})
    return params, calls


def test_every_default_is_set_by_some_caller():
    params, calls = _program()

    def passed(param, names, position):
        """What the calls pass to a parameter."""
        for name, positional, starred, keywords in calls:
            if name not in names:
                continue
            if position is not None and position < len(positional):
                yield positional[position]
            if position is not None and starred is not None and \
                    position >= starred or None in keywords:
                yield None
            if param in keywords:
                yield keywords[param]

    def set_by_a_call(where, param, names, position, unset):
        return any(source is None or source not in unset
                   for source in passed(param, names, position))

    # a default only passed on from an unset default is unset; one the
    # tests set counts as set where it is passed on
    unset = {where for where, *_ in params} - set(UNSET)
    while True:
        still = {p[0] for p in params
                 if p[0] in unset and not set_by_a_call(*p, unset)}
        if still == unset:
            break
        unset = still
    assert not unset, f"defaults no call in the program sets: {sorted(unset)}"
    stale = set(UNSET) - {p[0] for p in params
                          if p[0] in UNSET and not set_by_a_call(*p, unset)}
    assert not stale, f"UNSET names a default that no longer is one, or " \
                      f"that a call sets: {sorted(stale)}"
