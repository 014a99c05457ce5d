"""Checks over the package's own source."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import wmcvar
from wmcvar.circuit import Vtree, sdd_text
from wmcvar.sddc import Cnf, compile_cnf
from wmcvar.weights import VarMoments, WeightModel

PACKAGE = Path(wmcvar.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so no check in the package may
    # be one: raise a typed error instead
    paths = sorted(PACKAGE.rglob('*.py'))
    assert len(paths) > 5
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        found += ['%s:%d' % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_recursion_limit_changes():
    # the limit is the whole process's: deep inputs are walked on
    # explicit stacks instead of raising it
    found = []
    for path in sorted(PACKAGE.rglob('*.py')):
        tree = ast.parse(path.read_text(), str(path))
        found += ['%s:%d' % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and 'setrecursionlimit' in (getattr(node.func, 'attr', None),
                                              getattr(node.func, 'id', None))]
    assert found == []


def test_no_unused_imports():
    # every name a module imports is used in it, but on lines marked
    # noqa: F401 (an import kept for its side or for a wrapper to find)
    found = []
    for path in sorted(PACKAGE.rglob('*.py')):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text, str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split('.')[0]
                if name not in used and \
                        '# noqa: F401' not in lines[alias.lineno - 1]:
                    found.append('%s:%d %s' % (path.name, alias.lineno, name))
    assert found == []


def import_time_modules(tree):
    """Modules a parsed file imports when it is loaded: function bodies,
    which import on call, are skipped."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_numpy_only_in_oracle():
    # numpy costs most of a command's start-up and no engine pass needs
    # it; the brute-force oracle imports it where it computes
    found = []
    for path in sorted(PACKAGE.rglob('*.py')):
        if path.name == 'oracle.py':
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += ['%s: %s' % (path.name, m)
                  for m in import_time_modules(tree)
                  if m.split('.')[0] == 'numpy']
    assert found == []


RUN_COMMANDS = """
import contextlib, io, json, sys
from wmcvar.cli import main
codes = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes[argv[0]] = main(argv)
print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))
"""


def test_commands_run_without_numpy(tmp_path):
    n = 8
    vt = Vtree.right_linear(n)
    c = compile_cnf(Cnf(n, [(v, -(v + 1)) for v in range(1, n)]), vt)
    (tmp_path / 'c.vtree').write_text(vt.to_text())
    (tmp_path / 'c.sdd').write_text(sdd_text(c))
    (tmp_path / 'c.cnf').write_text(
        Cnf(n, [(v, -(v + 1)) for v in range(1, n)]).to_dimacs())
    wm = WeightModel({v: VarMoments(0.6, 0.4, 0.01, 0.01, -0.01)
                      for v in range(1, n + 1)})
    (tmp_path / 'w.json').write_text(json.dumps(wm.to_json()))
    (tmp_path / 'ev.json').write_text('{"B": "t"}')
    net = str(PACKAGE / 'data' / 'chain2.json')
    files = {k: str(tmp_path / k) for k in
             ('c.vtree', 'c.sdd', 'c.cnf', 'w.json', 'ev.json', 'out.sdd')}
    commands = [
        ['variance', files['c.sdd'], '--vtree', files['c.vtree'],
         '--weights', files['w.json']],
        # 8 variables: the loader checks determinism exhaustively
        ['count', files['c.sdd'], '--vtree', files['c.vtree']],
        ['compile', files['c.cnf'], '--vtree', files['c.vtree'],
         '--out', files['out.sdd']],
        ['bn', net, '--evidence', files['ev.json'], '--sweep'],
    ]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, '-c', RUN_COMMANDS,
                           json.dumps(commands)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got['codes'] == {'variance': 0, 'count': 0, 'compile': 0,
                            'bn': 0}
    assert not got['numpy']


def test_perfbench_tracer_wraps_every_layer():
    # perfbench --trace 1 wraps the package's functions by name: a rename
    # in src/wmcvar must fail here, not in the benchmark
    path = PACKAGE.parent.parent / 'perfbench' / 'spans.py'
    spec = importlib.util.spec_from_file_location('perfbench_spans', path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # the modules perfbench's load_program imports
    for name in ('bayes', 'circuit', 'moments', 'reductions', 'sddc',
                 'weights'):
        importlib.import_module('wmcvar.' + name)
    wrapped = [(wmcvar.sddc, 'compile_cnf'),
               (wmcvar.sddc.SddBuilder, 'to_circuit'),
               (wmcvar.circuit.Vtree, 'deepest_containing')]
    before = [getattr(owner, attr) for owner, attr in wrapped]
    tracer = spans.Tracer()
    tracer.install(wmcvar)
    try:
        pipe = wmcvar.bayes.MarginalPipeline(
            wmcvar.bayes.demo_networks()['chain2'])
        tracer.enabled = True
        wmcvar.sddc.compile_cnf(Cnf(4, [(1, -2), (3, 4)]), Vtree.balanced(4))
        compiled = tracer.dump()
        # conditioning on evidence goes through bayes.normalize
        pipe.moments({'B': 't'}, 'conjoin')
        queried = tracer.dump()[len(compiled):]
        # a count's validate, which perfbench's circuit.validate_s reads
        wmcvar.reductions.count_via_variance(
            wmcvar.sddc.compile_cnf(Cnf(3, [(1, 2)]), Vtree.balanced(3)))
        counted = tracer.dump()[len(compiled) + len(queried):]
    finally:
        tracer.uninstall()
    names = {s['name'] for s in compiled}
    assert {'sddc.compile', 'sddc.to_circuit',
            'circuit.deepest_containing'} <= names
    # a query's mean reads one expectation table, which perfbench's
    # moments.exp_table_s needs samples of
    assert {'circuit.normalize', 'moments.exp_table'} <= {
        s['name'] for s in queried}
    assert 'circuit.validate' in {s['name'] for s in counted}
    assert [getattr(owner, attr) for owner, attr in wrapped] == before


LOADED = """
import contextlib, io, json, sys
import wmcvar.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(wmcvar.cli.main(argv))
print(json.dumps({'codes': codes, 'modules': sorted(
    m for m in sys.modules if m.split('.')[0] == 'wmcvar')}))
"""


def loaded_after(commands):
    """Exit codes of the commands, run in a fresh interpreter, and the
    wmcvar modules loaded by then."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, '-c', LOADED,
                           json.dumps(commands)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    return got['codes'], set(got['modules'])


def test_cli_imports_only_what_a_command_uses(tmp_path):
    # a CLI run compiles every module it imports when bytecode is not
    # cached, so each command loads only its own part of the package
    n = 6
    cnf = Cnf(n, [(v, -(v + 1)) for v in range(1, n)])
    vt = Vtree.right_linear(n)
    (tmp_path / 'c.vtree').write_text(vt.to_text())
    (tmp_path / 'c.cnf').write_text(cnf.to_dimacs())
    (tmp_path / 'c.sdd').write_text(sdd_text(compile_cnf(cnf, vt)))
    wm = WeightModel({v: VarMoments(0.6, 0.4, 0.01, 0.01, -0.01)
                      for v in range(1, n + 1)})
    (tmp_path / 'w.json').write_text(json.dumps(wm.to_json()))
    path = {k: str(tmp_path / k)
            for k in ('c.vtree', 'c.cnf', 'c.sdd', 'w.json', 'out.sdd')}

    assert loaded_after([]) == ([], {'wmcvar', 'wmcvar.cli',
                                     'wmcvar.errors'})
    codes, mods = loaded_after([['compile', path['c.cnf'], '--vtree',
                                 path['c.vtree'], '--out', path['out.sdd']]])
    assert codes == [0] and 'wmcvar.sddc' in mods
    assert not mods & {'wmcvar.moments', 'wmcvar.bayes'}
    codes, mods = loaded_after([['variance', path['c.sdd'], '--vtree',
                                 path['c.vtree'], '--weights',
                                 path['w.json']]])
    assert codes == [0] and 'wmcvar.moments' in mods
    assert not mods & {'wmcvar.bayes', 'wmcvar.sddc', 'wmcvar.oracle'}


EXPORTS = """
import json, wmcvar
bad = []
for name in wmcvar.__all__ + ['no_such_name']:
    try:
        exec('from wmcvar import %s' % name, {})
    except ImportError:
        bad.append(name)
print(json.dumps({'names': len(wmcvar.__all__), 'bad': bad}))
"""


def test_every_export_resolves():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, '-c', EXPORTS],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got['bad'] == ['no_such_name']
    assert got['names'] == len(wmcvar.__all__) > 40


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_used(node, inside=()):
    """Names that node reads, as a name, an attribute or an import, except
    where they sit in a def of the same name (a recursive call)."""
    for child in ast.iter_child_nodes(node):
        name = (child.id if isinstance(child, ast.Name) else
                child.attr if isinstance(child, ast.Attribute) else
                child.name if isinstance(child, ast.alias) else None)
        if name is not None and name not in inside:
            yield name
        yield from names_used(child, inside + (child.name,)
                              if isinstance(child, DEFS) else inside)


def test_private_helpers_have_callers():
    # a private function, method or class that only the tests name is
    # dead code in the package
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob('*.py'))]
    private = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, DEFS) and node.name.startswith('_')
               and not node.name.endswith('__')}
    used = {name for tree in trees for name in names_used(tree)}
    assert len(private) > 20
    assert sorted(private - used) == []


MUTATORS = {'append', 'extend', 'insert', 'pop', 'popitem', 'remove',
            'clear', 'update', 'setdefault', 'add', 'discard', 'sort',
            'reverse', 'difference_update', 'intersection_update',
            'symmetric_difference_update', '__setitem__', '__delitem__'}


def module_state_writes(tree):
    """Where a function of a parsed module declares global, stores into a
    module-level name by subscript, or calls a mutating method on one
    (a name its own body or parameters bind does not count)."""
    top = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, DEFS):
            top.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            top.add(node.id)
        elif isinstance(node, ast.alias):
            top.add(node.asname or node.name.split('.')[0])
        stack.extend(ast.iter_child_nodes(node))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        own = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        own |= {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)}
        shared = top - own
        for node in ast.walk(fn):
            target = None
            if isinstance(node, ast.Global):
                found.append('%d global %s' % (node.lineno,
                                               ', '.join(node.names)))
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS:
                target = node.func.value
            if isinstance(target, ast.Name) and target.id in shared:
                found.append('%d %s' % (node.lineno, target.id))
    return sorted(set(found))


def test_no_module_state():
    # kept state lives on circuits, engines and pipelines, which their
    # owners can drop: no function keeps any in a module
    sample = ast.parse(
        'SEEN, KEYS = {}, []\n'
        'def f(x, KEYS=()):\n    global TOTAL\n    SEEN[x] = 1\n'
        '    SEEN.setdefault(x, 2)\n    KEYS.append(x)\n    del SEEN[x]\n'
        'def g(SEEN):\n    SEEN[0] = 1\n    local = []\n'
        '    local.append(1)\n')
    assert module_state_writes(sample) == [
        '3 global TOTAL', '4 SEEN', '5 SEEN', '7 SEEN']
    found = []
    for path in sorted(PACKAGE.rglob('*.py')):
        tree = ast.parse(path.read_text(), str(path))
        found += ['%s:%s' % (path.name, at)
                  for at in module_state_writes(tree)]
    assert found == []
