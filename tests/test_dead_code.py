"""No dead code in the package: a static check over its source.

Every undecorated function or class of src/dscentral whose name is not a
dunder must be referenced somewhere in the package or in bench/, outside
its own definition.  A reference is a name, an attribute, an imported
name, or a dotted string in bench/ (the tracer looks its functions up by
such strings).  Docstrings do not count, so a doctest is not a caller;
the tests are not callers either.

The check works on names: a method that shares its name with a used
function elsewhere, or a function named like a local variable, passes
unseen."""

import ast
import glob
import os
import re
from collections import Counter

import dscentral

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOTTED = re.compile(r'[A-Za-z_]\w*(\.[A-Za-z_]\w*)*')


def _docstrings(tree):
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}


def references(tree, strings=False):
    """Counter of the names a syntax tree refers to; with `strings`, the
    parts of dotted string literals count as well."""
    docs = _docstrings(tree) if strings else ()
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split('.')[-1]] += 1
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and DOTTED.fullmatch(node.value)):
            out.update(node.value.split('.'))
    return out


def definitions(tree):
    """The undecorated, non-dunder function and class definitions."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.decorator_list
            and not (node.name.startswith('__') and node.name.endswith('__'))]


def unreferenced(package, others):
    """'module.name' for each definition in `package` (path -> source)
    with no reference outside its own body; `others` are further sources
    whose dotted strings count too."""
    trees = {path: ast.parse(src, path) for path, src in package.items()}
    refs = Counter()
    for tree in trees.values():
        refs += references(tree)
    for path, src in others.items():
        refs += references(ast.parse(src, path), strings=True)
    out = []
    for path, tree in trees.items():
        for node in definitions(tree):
            own = references(node)[node.name]
            if refs[node.name] <= own:
                out.append('%s.%s' % (os.path.basename(path)[:-3], node.name))
    return sorted(out)


def _read(paths):
    out = {}
    for path in paths:
        with open(path) as f:
            out[path] = f.read()
    return out


def test_check_sees_each_kind_of_reference():
    pkg = {'m.py': ('import os\n'
                    'def used_by_name(): pass\n'
                    'def used_as_attribute(): pass\n'
                    'def recursive(): return recursive()\n'
                    'def in_docstring():\n    """>>> in_docstring()"""\n'
                    '@staticmethod\ndef decorated(): pass\n'
                    'class Dead:\n    def __init__(self): pass\n'
                    '    def method(self): pass\n'
                    'x = used_by_name() + os.used_as_attribute()\n')}
    bench = {'b.py': '"traced"\nfrom m import imported\nSPANS = ["Dead.method"]\n'}
    assert unreferenced(pkg, {}) == ['m.Dead', 'm.in_docstring', 'm.method', 'm.recursive']
    pkg['m.py'] += 'def imported(): pass\ndef traced(): pass\n'
    assert unreferenced(pkg, bench) == ['m.in_docstring', 'm.recursive', 'm.traced']


def test_package_has_no_dead_code():
    pkg = os.path.dirname(dscentral.__file__)
    package = _read(sorted(glob.glob(os.path.join(pkg, '*.py'))))
    bench = _read(sorted(glob.glob(os.path.join(ROOT, 'bench', '*.py'))))
    assert package and bench
    assert unreferenced(package, bench) == []
