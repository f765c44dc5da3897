"""The public functions of ``ckrank.tensor``, ``ckrank.attention``,
``ckrank.pooling``, ``ckrank.checkpoint``, ``ckrank.container`` and
``ckrank.index``, and the public methods of ``CKModel``, are ones the
package itself calls.

Reference code (generic ops, textbook attention, per-document scoring)
belongs in the test tree (``refops``, ``oracles``), so a public function
that no other module of the package refers to, or a ``CKModel`` method
that nothing in the package reaches by attribute, fails here: move it to
the tests or delete it.
"""

import ast
from pathlib import Path

import ckrank

SRC = Path(ckrank.__file__).resolve().parent
GUARDED = ("tensor", "attention", "pooling", "checkpoint", "container", "index")

# Public functions kept although no other module of the package calls them.
KEPT = {
    "tensor": {
        # A mode switch for callers of the package.
        "finite_checks",
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

# Public CKModel methods kept although nothing in the package reaches them.
KEPT_METHODS = {
    # perfbench traces and calls it; only a benchmark change may retire it.
    "explicit_term_scores",
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


def test_every_public_model_method_is_reached_in_the_package():
    """By attribute, from any module: the model travels under many names
    (``self``, ``model``), so any ``.name`` counts as a use."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    ckmodel, = (node for node in trees["model"].body
                if isinstance(node, ast.ClassDef) and node.name == "CKModel")
    methods = {node.name for node in ckmodel.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    reached = {node.attr for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
    assert methods - reached == KEPT_METHODS
