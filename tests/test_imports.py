"""The import path and the module graph: what ``cohrand`` loads and which
of its modules may import which."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohrand
from cohrand import _kernels, random_density, roof
from cohrand.stateio import save_state

PACKAGE = Path(cohrand.__file__).resolve().parent


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _relative_imports(tree: ast.Module) -> set:
    """Sibling modules named by ``from .x import ...`` (or ``from . import x``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module)
            else:
                out.update(alias.name for alias in node.names)
    return out


def _modules_after(code: str, package: str) -> str:
    """The modules of `package` (a dotted name) loaded after running code in
    a fresh interpreter: this test process may have loaded them already."""
    code += (
        f"; import sys; print(sorted(m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package + '.'!r})))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _modules_after("import cohrand.cli", "scipy") == "[]"


def test_pipeline_call_loads_no_scipy(tmp_path):
    # The pipeline runs the Toeplitz hash, whose FFT is numpy's.
    path = tmp_path / "psi.json"
    save_state(cohrand.pure_state([0.8, 0.6]), path)
    argv = ["pipeline", str(path), "--groups", "20", "--group-n", "50"]
    assert _modules_after(f"import cohrand.cli; cohrand.cli.main({argv!r})", "scipy") == "[]"


def test_verify_call_loads_no_numpy_ma():
    # np.unique imports numpy.ma, which costs the property suite memory.
    argv = ["verify", "--samples", "20"]
    code = f"import cohrand.cli; cohrand.cli.main({argv!r})"
    assert _modules_after(code, "numpy.ma") == "[]"


def test_measures_call_loads_no_numpy_random(tmp_path):
    # The seeded draws build their seed sequence type on first use, so a
    # command that draws nothing does not pay numpy.random's import.
    path = tmp_path / "rho.json"
    save_state(cohrand.random_density(2, 2, 3), path)
    code = f"import cohrand.cli; cohrand.cli.main({['measures', str(path)]!r})"
    assert _modules_after(code, "numpy.random") == "[]"


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("distill", "roof"),  # the roof optimizer is not part of distillation
        ("stateio", "rng"),  # file formats need the state types, not sampling
    ],
)
def test_module_graph_is_one_way(module, forbidden):
    assert forbidden not in _relative_imports(_tree(module))


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
)
def test_no_unused_imports(module):
    tree = _tree(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_no_unused_private_names():
    # A module-level private name (a helper, constant or class) that no
    # package code reads is dead: only a test could still reach it.
    defined, loaded = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update(
                f"{path.stem}.{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
    assert sorted(n for n in defined if n.split(".")[1] not in loaded) == []


def test_one_home_for_seeded_gaussians():
    # Every complex Gaussian draw goes through states._complex_normals, and
    # every child generator comes from Generator.spawn; docstrings and
    # comments may still name SeedSequence.
    draws, seed_sequences = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        homes = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) == ("states", "_complex_normals")
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            # What an attribute, a bare name or an imported name names.
            name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
            if name == "standard_normal" and id(node) not in homes:
                draws.append(f"{path.stem}:{node.lineno}")
            if name == "SeedSequence":
                seed_sequences.append(f"{path.stem}:{node.lineno}")
    assert draws == []
    assert seed_sequences == []


# The public functions and classes that no package code names, each with
# the reason it stays. A public name that only tests reach is dead code
# unless it is listed here.
UNREFERENCED_PUBLIC_NAMES = {
    **dict.fromkeys(
        [
            "channels.apply_channel",
            "channels.apply_selective",
            "channels.check_convexity",
            "channels.exact_measure_value",
            "channels.is_incoherent_kraus_set",
            "channels.random_incoherent_kraus",
            "roof.decomposition_from_isometry",
            "states.random_density",
            "states.von_neumann_entropy",
        ],
        "traced by perfbench/run.py, so removing it is a benchmark change",
    ),
    "channels.check_monotonicity": "README's witness-rebuild recipe",
    "measures.concurrence_bloch": "acceptance criterion 3",
    "measures.concurrence_spin_flip": "acceptance criterion 3",
    "roof.brute_force_roof_qubit": "acceptance criterion 2 and README's grid oracle",
    "roof.regularized_roof_estimate": "acceptance criterion 8 and README's two-copy estimate",
    "states.maximally_coherent_state": "acceptance criteria 7 and 10",
    "states.haar_random_pure": "README's seeded pure states",
    "stateio.save_state": "writes the state files the tests feed the command line",
    "channels.projection_partition_kraus": "builds the incoherent channels the tests apply",
}


def test_every_public_name_has_a_caller_or_a_reason():
    # Every public top-level function or class of a module is named, as a
    # bare name or an attribute, somewhere in the package, or it is listed
    # above with a reason. A name read only by __init__'s re-export does
    # not count, since an import names it as an alias.
    defined, named = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem != "__init__":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                    defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreferenced = {qualified for qualified, name in defined.items() if name not in named}
    assert unreferenced == set(UNREFERENCED_PUBLIC_NAMES)


def _traced_names() -> list:
    """The "module.name" strings of the benchmark's SELF_S and CALLS tuples,
    read from its source so that its import-time environment set-up does
    not run here."""
    tree = ast.parse((PACKAGE.parents[1] / "perfbench" / "run.py").read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SELF_S", "CALLS") for t in node.targets
        ):
            names.extend(ast.literal_eval(node.value))
    return names


def test_benchmark_traces_names_that_exist():
    # The benchmark's tracer resolves each name with getattr, so a traced
    # run would crash on a function the package no longer has.
    names = _traced_names()
    assert len(names) > 20
    missing = []
    for name in names:
        module, attr = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"cohrand.{module}"), attr, None)):
            missing.append(name)
    assert missing == []


def test_benchmark_reads_the_kernels_value_in_bits():
    # The benchmark's tracer keeps (value, converged) of each roof_descent
    # result and compares the values of one roof call's descents. Fed the
    # kernel's result on a block of trace 0.3, as the block split hands it
    # over, the value it keeps must be the roof objective of the returned
    # rows, in bits at the block's own trace.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PACKAGE.parents[1] / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    b = roof._support_rows(0.3 * random_density(2, 2, seed=7).mat)
    g = np.random.default_rng(7)
    w0, _ = np.linalg.qr(g.standard_normal((4, 4, 2)) + 1j * g.standard_normal((4, 4, 2)))
    result = _kernels.roof_descent(w0 @ b, roof.MAX_ITERATIONS, roof.TOLERANCE_BITS)
    value, converged = tracing._roof_descent_extra(result)
    rows = result[1]
    p = np.sum(np.abs(rows) ** 2, axis=1)
    keep = p > 0
    decomp = roof.Decomposition(p[keep], rows[keep] / np.sqrt(p[keep])[:, None])
    assert converged
    assert abs(value - roof.roof_objective(decomp)) <= 1e-12
