"""Mutation check of the signer's release path: which broken checks does no test notice?

Usage:
    python tools/mutate.py

Each mutant changes one operator in one of the functions in ``SCOPE``:
a comparison is flipped (``<`` and ``<=``, ``==`` and ``!=``, ``in`` and
``not in``, ``is None`` and ``is not None``), ``and`` and ``or`` trade places,
an ``if`` test is negated, and in ``cli.main`` the two error exit codes trade
places.  The repository is copied into a temporary directory first, and
every mutant is written there, so the checkout is never touched and an
interrupted run leaves no mutant behind.  Mutants run one at a time; a
mutant is killed when tier-1 (``PYTEST_ARGS``) fails or runs past
``TIMEOUT_S``.

A mutant's id is its file, function, change and the source of the changed
expression, so an edit elsewhere in the file leaves the ids as they were.
The survivors are written as JSON to ``OUT``.  The exit status is 1 when a
survivor is not listed, with a one-line reason, in ``EQUIVALENTS``, and 0
otherwise.  Only the standard library is used.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "mutation-survivors.json")
EQUIVALENTS = os.path.join(ROOT, "tools", "mutation_equivalents.json")
TIMEOUT_S = 600
PYTEST_ARGS = ["-x", "-q", "-p", "no:cacheprovider", "tests"]

SCOPE = {
    "src/semecs/keystore.py": ["open_signer", "advance_counter", "_directory_lock",
                               "_payload", "_scalars"],
    "src/semecs/semecs.py": ["_SigningState._unspent_index",
                             "_SigningState._persist_then_advance"],
    "src/semecs/cli.py": ["main"],
}

_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
          ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_EXIT_SWAP = {"EXIT_USAGE": "EXIT_STATE", "EXIT_STATE": "EXIT_USAGE"}


def _functions(tree, names):
    """Yield (qualified name, node) for each function of ``names`` in ``tree``."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if prefix + node.name in names:
                    yield prefix + node.name, node
    yield from walk(tree.body, "")


def _variants(node, function):
    """Yield (description, replacement node) for each mutant of ``node`` itself."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _FLIPS:
                ops = list(node.ops)
                ops[i] = _FLIPS[type(op)]()
                nth = f" (operator {i + 1})" if len(node.ops) > 1 else ""
                yield (f"{type(op).__name__} -> {type(ops[i]).__name__}{nth}",
                       ast.Compare(node.left, ops, node.comparators))
    elif isinstance(node, ast.BoolOp):
        other = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        yield f"{type(node.op).__name__} -> {type(other).__name__}", ast.BoolOp(other, node.values)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not x -> x", node.operand
    elif isinstance(node, ast.Name) and function == "main" and node.id in _EXIT_SWAP:
        yield f"{node.id} -> {_EXIT_SWAP[node.id]}", ast.Name(_EXIT_SWAP[node.id], ast.Load())


def _if_tests(function):
    for node in ast.walk(function):
        if isinstance(node, (ast.If, ast.IfExp)):
            yield node.test


def mutants(path, names):
    """Yield (id, mutated source) for every mutant of ``names`` in the file at ``path``."""
    with open(os.path.join(ROOT, path)) as fh:
        source = fh.read()
    lines = source.splitlines(keepends=True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line))

    def span(node):
        return (offsets[node.lineno - 1] + node.col_offset,
                offsets[node.end_lineno - 1] + node.end_col_offset)

    functions = dict(_functions(ast.parse(source), set(names)))
    if set(names) - set(functions):  # a renamed function would silently leave the scope
        raise SystemExit(f"{path}: no function named {sorted(set(names) - set(functions))}")
    seen = {}
    for qualname, function in functions.items():
        changes = [(node, desc, new) for node in ast.walk(function)
                   for desc, new in _variants(node, qualname)]
        changes += [(test, "if x -> if not x", ast.UnaryOp(ast.Not(), test))
                    for test in _if_tests(function)]
        for node, desc, new in changes:
            start, end = span(node)
            text = ast.unparse(new)
            if "\n" in source[start:end] or isinstance(new, (ast.BoolOp, ast.UnaryOp)):
                text = f"({text})"
            mutant_id = f"{path}:{qualname}: {desc}: {ast.unparse(node)}"
            seen[mutant_id] = seen.get(mutant_id, 0) + 1
            if seen[mutant_id] > 1:  # the same expression twice in one function
                mutant_id += f" [{seen[mutant_id]}]"
            yield mutant_id, source[:start] + text + source[end:]


def _copy_tree(destination):
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".perfbench_*", "*.egg-info")
    shutil.copytree(ROOT, destination, ignore=ignore)


def main():
    with open(EQUIVALENTS) as fh:
        equivalents = {entry["id"]: entry["reason"] for entry in json.load(fh)}

    survivors, total = [], 0
    with tempfile.TemporaryDirectory(prefix="semecs-mutants-") as work:
        tree = os.path.join(work, "repo")
        _copy_tree(tree)
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        for path, names in SCOPE.items():
            target = os.path.join(tree, path)
            with open(target) as fh:
                original = fh.read()
            try:
                for mutant_id, source in mutants(path, names):
                    total += 1
                    with open(target, "w") as fh:
                        fh.write(source)
                    command = [sys.executable, "-m", "pytest", *PYTEST_ARGS]
                    try:
                        result = subprocess.run(command, cwd=tree, env=env, timeout=TIMEOUT_S,
                                                stdout=subprocess.DEVNULL,
                                                stderr=subprocess.DEVNULL)
                        killed = result.returncode != 0
                    except subprocess.TimeoutExpired:
                        killed = True
                    print(f"{'killed ' if killed else 'SURVIVED'} {mutant_id}", flush=True)
                    if not killed:
                        survivors.append({"id": mutant_id,
                                          "equivalent": equivalents.get(mutant_id)})
            finally:
                with open(target, "w") as fh:
                    fh.write(original)

    with open(OUT, "w") as fh:
        json.dump({"mutants": total, "survivors": survivors}, fh, indent=2)
    unlisted = [s["id"] for s in survivors if s["equivalent"] is None]
    print(f"{total} mutants, {len(survivors)} survived, {len(unlisted)} not listed as equivalent")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
