"""No float can enter the package: a static check over its source.

Every module of src/dscentral is parsed, and its syntax tree must hold no
float or complex literal, no use of the names `float` or `complex`, none
of math's sqrt, log, exp, pi or e, and no import of a floating-point or
computer-algebra library."""

import ast
import glob
import os

import dscentral

FORBIDDEN_NAMES = {'float', 'complex'}
FORBIDDEN_MATH = {'sqrt', 'log', 'exp', 'pi', 'e'}
FORBIDDEN_MODULES = {'cmath', 'decimal', 'numpy', 'mpmath', 'sympy'}


def float_sources(tree):
    """(line, what) for every forbidden construct in a module."""
    math_names = {'math'}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, 'literal %r' % node.value))
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            out.append((node.lineno, 'name %s' % node.id))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split('.')[0] in FORBIDDEN_MODULES:
                    out.append((node.lineno, 'import %s' % alias.name))
                if alias.name == 'math':
                    math_names.add(alias.asname or 'math')
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split('.')[0]
            if root in FORBIDDEN_MODULES:
                out.append((node.lineno, 'import from %s' % node.module))
            if root == 'math':
                out += [(node.lineno, 'math.%s' % a.name) for a in node.names
                        if a.name in FORBIDDEN_MATH | {'*'}]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_MATH
                and isinstance(node.value, ast.Name) and node.value.id in math_names):
            out.append((node.lineno, 'math.%s' % node.attr))
    return out


def test_guard_sees_each_construct():
    src = ('import math as m\nimport numpy.linalg\nfrom decimal import Decimal\n'
           'from math import sqrt\nx = 1.5 + 2j\ny = float(3)\nz = m.pi + math.e\n')
    found = {what for _, what in float_sources(ast.parse(src))}
    assert found == {'import numpy.linalg', 'import from decimal', 'math.sqrt',
                     'literal 1.5', 'literal 2j', 'name float', 'math.pi', 'math.e'}


def test_package_source_has_no_float():
    pkg = os.path.dirname(dscentral.__file__)
    files = sorted(glob.glob(os.path.join(pkg, '*.py')))
    assert files
    bad = []
    for path in files:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        bad += ['%s:%d: %s' % (os.path.basename(path), line, what)
                for line, what in float_sources(tree)]
    assert not bad, bad
