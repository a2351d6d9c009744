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

Names kept for the tests alone, or read only on a path the small runs do
not take, must be listed in ALLOWED, by module and qualified name, with
the reason.
"""

import ast
import dataclasses
import importlib
import json
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
    "pulses.Epoch.label": "names the epoch in the error messages of "
                          "propagate",
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
