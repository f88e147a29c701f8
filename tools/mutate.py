"""Mutation check: which one-token changes to a module do the tests miss?

Usage:
    python tools/mutate.py src/keyecho/keylog.py tests/test_keylog.py \
        tests/test_loader_fuzz.py [--sample N] [--seed 2026]

Each mutant makes one change to the module: a comparison flip (< and
<=, > and >=, == and !=, in and not in), + and -, * and /, `and` and
`or`, or an integer constant plus one. It is written into a temporary
copy of src/, never into the checkout, and `pytest -x` runs the given
test files against it. A mutant survives when they all pass.
Known-equivalent mutants, which no test can kill, are listed below and
reported apart. The exit status is 1 when a mutant survives. Every site
is tried unless --sample draws N of them with the seed.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each swap, made both ways, with how its two operators are written.
OPERATORS = [(ast.Lt, "<", ast.LtE, "<="), (ast.Gt, ">", ast.GtE, ">="),
             (ast.Eq, "==", ast.NotEq, "!="),
             (ast.In, "in", ast.NotIn, "not in"),
             (ast.Add, "+", ast.Sub, "-"), (ast.Mult, "*", ast.Div, "/"),
             (ast.And, "and", ast.Or, "or")]
SWAPS = {**{a: b for a, _, b, _ in OPERATORS},
         **{b: a for a, _, b, _ in OPERATORS}}
SYMBOL = {**{a: s for a, s, _, _ in OPERATORS},
          **{b: s for _, _, b, s in OPERATORS}}
# (file, source line, change) of each mutant that behaves as the original.
EQUIVALENT = {
    # std 0 draws zeros from the noise stream, which no other draw shares.
    ("synth.py", "if profile.noise_std > 0:", "> -> >="),
    # numpy reads any negative size in reshape as "the rest".
    ("keylog.py", "codes = _BYTE_CODE[codes].reshape(-1, n)", "1 -> 2"),
    # the table is indexed by ASCII bytes only, all below 128.
    ("keylog.py", "_BYTE_CODE = np.zeros(128, dtype=np.uint16)", "128 -> 129"),
    # no key has virtual code 0 or 1, so either reads as OTHER.
    ("keylog.py", "virtual_code = int(row[3]) if row[3].strip() else 0",
     "0 -> 1"),
    # a 12-byte file fails the next check, with another message only.
    ("audio.py", 'if len(data) < 12 or data[:4] != b"RIFF" or '
                 'data[8:12] != b"WAVE":', "< -> <="),
}


def sites(tree):
    """(node number in ast.walk order, slot, line, change) of every site,
    by line; slot is the operator's place in a comparison chain."""
    found = []
    for number, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((number, None, node.lineno,
                          f"{node.value} -> {node.value + 1}"))
            continue
        if isinstance(node, ast.Compare):
            ops = enumerate(map(type, node.ops))
        elif isinstance(node, (ast.BinOp, ast.BoolOp)):
            ops = [(None, type(node.op))]
        else:
            continue
        found += [(number, slot, node.lineno,
                   f"{SYMBOL[op]} -> {SYMBOL[SWAPS[op]]}")
                  for slot, op in ops if op in SWAPS]
    return sorted(found, key=lambda site: site[2])


def mutant(source, number, slot):
    """The source with the one change at (number, slot)."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[number]
    if isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", type=Path, help="a module under src/")
    parser.add_argument("tests", nargs="+", type=Path)
    parser.add_argument("--sample", type=int, help="try N sites, not all")
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()
    module = args.module.resolve().relative_to(ROOT / "src")
    source = (ROOT / "src" / module).read_text(encoding="utf-8")
    todo = sites(ast.parse(source))
    if args.sample is not None and args.sample < len(todo):
        todo = sorted(random.Random(args.seed).sample(todo, args.sample),
                      key=todo.index)
    lines = source.splitlines()
    tests = [str(t.resolve()) for t in args.tests]
    with tempfile.TemporaryDirectory(prefix="mutate-") as work:
        shutil.copytree(ROOT / "src", Path(work) / "src")
        target = Path(work) / "src" / module
        env = dict(os.environ, PYTHONPATH=str(Path(work) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q",
                   "-p", "no:cacheprovider", f"--hypothesis-seed={args.seed}",
                   *tests]

        def passes(text, timeout=None):
            target.write_text(text, encoding="utf-8")
            shutil.rmtree(Path(work) / ".hypothesis", ignore_errors=True)
            try:
                return subprocess.run(command, cwd=work, env=env,
                                      capture_output=True,
                                      timeout=timeout).returncode == 0
            except subprocess.TimeoutExpired:
                return False  # a mutant that hangs is caught

        start = time.perf_counter()
        if not passes(ast.unparse(ast.parse(source))):
            sys.exit(f"the tests fail on the unmutated {module}")
        timeout = 10 * (time.perf_counter() - start) + 30
        counts = {"killed": 0, "equivalent": 0, "survived": 0}
        for number, slot, line, change in todo:
            text = lines[line - 1].strip()
            if (module.name, text, change) in EQUIVALENT:
                verdict = "equivalent"
            elif passes(mutant(source, number, slot), timeout):
                verdict = "survived"
            else:
                verdict = "killed"
            counts[verdict] += 1
            print(f"{verdict:10} {module.name}:{line}  {change:12} {text}",
                  flush=True)
    total = counts["killed"] + counts["survived"]
    print(f"{module.name}: {counts['killed']}/{total} killed, "
          f"{counts['survived']} survived, {counts['equivalent']} equivalent")
    sys.exit(1 if counts["survived"] else 0)


if __name__ == "__main__":
    main()
