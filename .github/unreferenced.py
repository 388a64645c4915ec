"""List the functions and classes of src/latclass that no other code in
src/latclass names: not by a call, an attribute, a reference or an import.

Run from the repository root: python3 .github/unreferenced.py.  Each line
is `<module>:<line> <name> (<length> lines)`.  A name that only the
standard library calls (an overridden method) is listed too, so the list is
informational.
"""

import ast
import pathlib

defs, uses = [], []
for path in sorted(pathlib.Path("src/latclass").glob("*.py")):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((path, node))
        elif isinstance(node, ast.Name):
            uses.append((path, node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            uses.append((path, node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            uses.append((path, node.lineno, node.name))

for path, node in defs:
    if node.name.startswith("__"):
        continue
    # a use inside the definition itself (recursion) does not count
    if not any(name == node.name and not (p == path and node.lineno <= line <= node.end_lineno)
               for p, line, name in uses):
        print(f"{path.name}:{node.lineno} {node.name} "
              f"({node.end_lineno - node.lineno + 1} lines)")
