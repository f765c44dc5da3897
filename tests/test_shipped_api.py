"""The public functions of ``ckrank.tensor``, ``ckrank.attention``,
``ckrank.pooling``, ``ckrank.checkpoint``, ``ckrank.container`` and
``ckrank.index`` are ones the package itself calls.

Reference code (generic ops, textbook attention) belongs in the test tree
(``refops``, ``oracles``), so a public function that no other module of the
package refers to fails here: move it to the tests or delete it.
"""

import ast
from pathlib import Path

import ckrank

SRC = Path(ckrank.__file__).resolve().parent
GUARDED = ("tensor", "attention", "pooling", "checkpoint", "container", "index")

# Public functions kept although no other module of the package calls them.
KEPT = {
    "tensor": {
        # Mode switches for callers of the package.
        "finite_checks", "grad_enabled",
        # perfbench traces tensor.softmax and tensor.layer_norm; only a
        # benchmark change may retire them.
        "softmax", "layer_norm",
        # Called inside tensor.py: the second op of tmean.
        "scale",
    },
    "attention": {
        # Called inside attention.py, by conformer_sublayers; multi_head is
        # also exported by the package.
        "feed_forward", "multi_head",
    },
    "pooling": {
        # Called inside pooling.py, by windowed_pool_terms and window_cover;
        # num_windows is also exported by the package.
        "num_windows", "window_cover",
    },
    "checkpoint": set(),
    "container": set(),
    "index": set(),
}


def public_functions(tree):
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def references(tree, module):
    """Names of ``ckrank.<module>`` a module refers to: through an alias of
    the module (``T.name``) or a ``from .module import name``."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name == module:
                    aliases.add(alias.asname or alias.name)
                elif node.module == module:
                    names.add(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def unreferenced(module):
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    used = set()
    for name, tree in trees.items():
        # A re-export in __init__ is not a use.
        if name not in (module, "__init__"):
            used |= references(tree, module)
    return public_functions(trees[module]) - used


def test_every_public_function_has_a_caller_in_the_package():
    for module in GUARDED:
        assert unreferenced(module) == KEPT[module], module
