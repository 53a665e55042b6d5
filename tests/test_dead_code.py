"""No dead code in the package: a static check over its source.

Every undecorated function or class of src/dscentral whose name is not a
dunder must be referenced somewhere in the package or in bench/, outside
its own definition.  A reference is a name, an attribute, an imported
name, or a dotted string in bench/ (the tracer looks its functions up by
such strings); a method is referenced only by an attribute or a dotted
string.  Docstrings do not count, so a doctest is not a caller; the
tests are not callers either.  No import of the package, at module or
at function scope, binds a name that its scope never reads.

The check works on names: a method that shares its name with an
attribute used elsewhere, or a function named like a local variable,
passes unseen."""

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
    """Counters (names, attributes) of the names a syntax tree refers to,
    and of those it refers to as attributes; with `strings`, the parts of
    dotted string literals count in both."""
    docs = _docstrings(tree) if strings else ()
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split('.')[-1]] += 1
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and DOTTED.fullmatch(node.value)):
            names.update(node.value.split('.'))
            attrs.update(node.value.split('.'))
    return names, attrs


def definitions(tree):
    """(node, is_method) for the undecorated, non-dunder function and
    class definitions."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    return [(node, id(node) in methods) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.decorator_list
            and not (node.name.startswith('__') and node.name.endswith('__'))]


def unreferenced(package, others):
    """'module.name' for each definition in `package` (path -> source)
    with no reference outside its own body; `others` are further sources
    whose dotted strings count too."""
    trees = {path: ast.parse(src, path) for path, src in package.items()}
    refs = [Counter(), Counter()]      # names, attributes: refs[is_method]
    for tree in trees.values():
        for total, part in zip(refs, references(tree)):
            total.update(part)
    for path, src in others.items():
        for total, part in zip(refs, references(ast.parse(src, path), strings=True)):
            total.update(part)
    out = []
    for path, tree in trees.items():
        for node, method in definitions(tree):
            if refs[method][node.name] <= references(node)[method][node.name]:
                out.append('%s.%s' % (os.path.basename(path)[:-3], node.name))
    return sorted(out)


def unused_imports(tree):
    """'name:line' for each name that an import binds, at module or at
    function scope, and that its scope never reads."""
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    out = []
    for scope in scopes:
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        todo = list(ast.iter_child_nodes(scope))
        while todo:             # the scope's own statements, not nested functions'
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            todo.extend(ast.iter_child_nodes(node))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split('.')[0]
                    if name not in read:
                        out.append('%s:%d' % (name, node.lineno))
    return sorted(out)


def _read(paths):
    out = {}
    for path in paths:
        with open(path) as f:
            out[path] = f.read()
    return out


def test_check_sees_each_kind_of_reference():
    # a local function named like a method is no caller of the method
    pkg = {'m.py': ('import os\n'
                    'def used_by_name(): pass\n'
                    'def used_as_attribute(): pass\n'
                    'def recursive(): return recursive()\n'
                    'def in_docstring():\n    """>>> in_docstring()"""\n'
                    '@staticmethod\ndef decorated(): pass\n'
                    'class Dead:\n    def __init__(self): pass\n'
                    '    def method(self): pass\n'
                    'def shadows():\n    def method(): pass\n    return method()\n'
                    'x = used_by_name() + os.used_as_attribute() + shadows()\n')}
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


def test_only_bench_names_lack_a_caller_in_the_package():
    # the tracer, the workloads and the bench self-tests look these up by
    # name; any other function without a caller in the package is dead
    # or test-only
    pkg = os.path.dirname(dscentral.__file__)
    package = _read(sorted(glob.glob(os.path.join(pkg, '*.py'))))
    assert unreferenced(package, {}) == [
        'brackets.bracket_density', 'dirac.numeric_pencil', 'fixtures.build_algebra',
        'fixtures.load_gammas', 'liealg.mcomm', 'liealg.mmul']


def test_import_check_sees_each_scope():
    tree = ast.parse('import os, os.path as osp\n'
                     'import a.b\n'
                     'from c import d, e as f\n'
                     'def g():\n'
                     '    from h import used, unused\n'
                     '    return used, a.b, f\n'
                     'def k():\n'
                     '    import os\n'
                     '    def inner():\n'
                     '        import i\n'
                     '        return i, osp\n'
                     '    return inner\n')
    assert unused_imports(tree) == ['d:3', 'os:1', 'os:8', 'unused:5']


def test_package_has_no_unused_imports():
    pkg = os.path.dirname(dscentral.__file__)
    package = _read(sorted(glob.glob(os.path.join(pkg, '*.py'))))
    assert {os.path.basename(path): unused_imports(ast.parse(src, path))
            for path, src in package.items()} == {os.path.basename(p): [] for p in package}
