"""Each layer takes what the layer before it built.  ``koszul`` makes a
complex from A_j and the rho matrices alone, so it reaches into no layer
but ``abelian`` and the commutator kernel of ``kgraph``; ``crmodule`` takes
the partition that validation returned, so it never validates.  The imports
are read with ``ast``, so that a convenience default cannot bring a
back-reference in unseen."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "kktheory"


def imports(module):
    """(relative, module, name) for every name that ``module`` imports; an
    ``import x`` has the name None."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out |= {(node.level > 0, node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {(False, alias.name, None) for alias in node.names}
    return out


def test_koszul_imports_abelian_and_first_noncommuting_alone():
    found = imports("koszul")
    relative = {(module, name) for is_relative, module, name in found if is_relative}
    assert {module for module, _ in relative} == {"abelian", "kgraph"}
    assert {name for module, name in relative if module == "kgraph"} == {"first_noncommuting"}
    assert not any(module.startswith("kktheory") for _, module, _ in found if module)


def test_crmodule_imports_no_validate():
    found = imports("crmodule")
    assert ("kgraph", "KGraphSpec") in {(module, name) for _, module, name in found}
    assert "validate" not in {name for _, _, name in found}
