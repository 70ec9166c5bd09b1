"""No library surface, and no private helper, that nothing uses.

Every public top-level function and public method in ``src/tpc`` must be
referenced somewhere in ``src/tpc``, be exported in ``tpc.__all__``, or be
listed below with the reason it exists, and every listed name must still be
used outside ``src/`` (by the tests, ``perfbench/`` or the README).  Every
private one (a leading
underscore, dunder methods aside) must be referenced in ``src/tpc``, with no
exceptions.  A reference is any use of the bare name (``name`` or
``something.name``) in any module, so a name shared with a used attribute
counts as used; definitions and imports are not uses.
"""

import ast
import re
from pathlib import Path

import tpc

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "tpc"

# Public names that nothing in src/ calls, each kept on purpose.
ALLOWED_UNREFERENCED = {
    "cli.parse_report_document",        # inverse of the --out document (README)
    # called by perfbench/selftest.py; they can leave src/ once it stops calling them
    "attacks.det3x3_function_id",
    "discrim.basis_measurement_optimal",
    "funcspec.one_sided_binary",
    "funcspec.two_sided_binary",
}


def definitions(tree: ast.Module, module: str, private: bool) -> dict[str, str]:
    """Qualified name -> bare name of every top-level function and every
    method of a top-level class, public or private (dunders excluded)."""

    def wanted(name: str) -> bool:
        if name.startswith("__") and name.endswith("__"):
            return False
        return name.startswith("_") == private

    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and wanted(node.name):
            found[f"{module}.{node.name}"] = node.name
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and wanted(sub.name):
                    found[f"{module}.{node.name}.{sub.name}"] = sub.name
    return found


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced(private: bool) -> set[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    defined, used = {}, set()
    for module, tree in trees.items():
        defined.update(definitions(tree, module, private))
        used |= referenced_names(tree)
    return {qual for qual, name in defined.items() if name not in used}


def test_no_unreferenced_public_surface():
    public = unreferenced(private=False)
    exported = {q for q in public if q.rsplit(".", 1)[-1] in tpc.__all__}
    unexplained = public - exported - ALLOWED_UNREFERENCED
    assert not unexplained, (
        f"public surface that nothing in src/ uses: {sorted(unexplained)}; "
        "delete it, or list it in ALLOWED_UNREFERENCED with its reason"
    )
    # every allowlist entry still exists and is still unreferenced
    assert ALLOWED_UNREFERENCED <= public, sorted(ALLOWED_UNREFERENCED - public)


def test_no_unreferenced_private_helpers():
    orphans = unreferenced(private=True)
    assert not orphans, f"private helpers that nothing in src/ uses: {sorted(orphans)}; delete them"


def test_every_allowlisted_name_is_used_outside_src():
    # no allowlisted name outlives its last caller
    sources = [p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != Path(__file__).name]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(referenced_names(ast.parse(p.read_text())) for p in sources))
    readme = (ROOT / "README.md").read_text()
    unused = {
        qual for qual in ALLOWED_UNREFERENCED
        if (name := qual.rsplit(".", 1)[-1]) not in used and not re.search(rf"\b{name}\b", readme)
    }
    assert not unused, f"allowlisted names nothing outside src/ uses: {sorted(unused)}; delete them"
