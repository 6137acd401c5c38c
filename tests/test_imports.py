"""The import contract: `import quditmagic` loads no submodule, each CLI
command loads only the modules it uses, and no class is generated at import
time.  Each sys.modules check runs in a fresh interpreter."""

import ast
import importlib
import os
import subprocess
import sys

import quditmagic

SRC = os.path.dirname(os.path.dirname(quditmagic.__file__))


def loaded_after(code: str) -> set[str]:
    """The quditmagic submodules a fresh interpreter holds after running code."""
    probe = code + ("\nimport sys\n"
                    "print(' '.join(m for m in sys.modules if m.startswith('quditmagic.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    return set(out.stdout.strip().splitlines()[-1].split()) if out.stdout.strip() else set()


def test_import_loads_no_submodule():
    assert loaded_after("import quditmagic") == set()


def test_search_loads_only_what_it_uses():
    code = ("import contextlib, io\nfrom quditmagic.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['search', '--source', '2q:G20,1', '--target', '2q:G20,4']) == 0")
    loaded = loaded_after(code)
    assert "quditmagic.clifford" in loaded
    assert not loaded & {"quditmagic.extent", "quditmagic.distill",
                         "quditmagic.extremality", "quditmagic.tables"}


def test_unknown_table_is_rejected_without_loading_tables():
    code = ("import contextlib, io\nfrom quditmagic.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    try:\n"
            "        main(['tables', 'not-a-table'])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 2 and 'invalid choice' in err.getvalue()")
    assert "quditmagic.tables" not in loaded_after(code)


def test_no_module_imports_dataclasses():
    for name in sorted(os.listdir(os.path.join(SRC, "quditmagic"))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, "quditmagic", name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", name


def test_public_names_resolve_to_their_defining_module():
    assert len(quditmagic.__all__) == len(set(quditmagic.__all__)) == 58
    for name in quditmagic.__all__:
        obj = getattr(quditmagic, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert name in dir(quditmagic)


def test_first_access_binds_the_names_of_loaded_modules():
    code = ("import quditmagic as qm\nqm.sre\n"
            "print('pauli_distribution' in vars(qm), 'xi2_expansion' in vars(qm))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.split() == ["True", "False"]


def test_submodules_resolve_as_attributes():
    loaded = loaded_after("import quditmagic\nquditmagic.weyl.transform_plan")
    assert "quditmagic.weyl" in loaded and "quditmagic.catalog" not in loaded
    assert "tables" in dir(quditmagic)
    assert not hasattr(quditmagic, "no_such_name")
