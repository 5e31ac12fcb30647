"""Every function body in `src/fewvid` runs in some command.

The commands run in process on a tiny corpus under `sys.setprofile`, which
records each Python code object entered. Every `def` and `lambda` of the
package's modules, listed with `ast`, must be among them, bar the error
and debugging paths and the one benchmark accessor in ALLOWED. A body no
command enters is dead code: delete it, or move it to the tests if a test
needs it as a reference.
"""

import ast
import sys
import types
from collections import Counter
from pathlib import Path

from fewvid import cli

PACKAGE = Path(cli.__file__).resolve().parent

# "module.qualname" of bodies no command enters, each with why it stays
ALLOWED = {
    "cli._Parser.error": "argparse's exit on a usage error",
    "autodiff.ShapeError.__init__": "raised only for operands of incompatible shapes",
    "data._choice_episode": "an episode the PCG64 stream cannot give, about 1 in 10^8",
    "autodiff.Tensor.__repr__": "only for printing a Tensor while debugging",
    "autodiff.Tensor.shape": "the benchmark's checks read a checkpoint's and an embedding's shape",
}

CORPUS = ("n_base_classes = 3\nn_novel_classes = 3\nvideos_per_class = 4\n"
          "T = 10\nd_in = 8\nd = 8\nepochs = 1\nbatch_size = 8\n"
          "K = 2\nn = 1\nq = 2\nepisodes = 3\n")

# train's checkpoints: the full objective, all three components off, and
# the attention baseline alone
ABLATIONS = {"full": [], "none": ["bg", "sw", "cl"], "attention": ["sw"]}


def commands(root: Path) -> list:
    """The argument lists of gen-data, train with each of ABLATIONS,
    eval-cls, eval-det and inspect on each checkpoint, and grad-check."""
    cfg = root / "run.cfg"
    cfg.write_text(CORPUS + f"data_dir = {root / 'ds'}\n")
    runs = [["gen-data", "--config", str(cfg)]]
    for name, ablate in ABLATIONS.items():
        ckpt = ["--config", str(cfg), "--ckpt", str(root / f"{name}.ckpt")]
        runs.append(["train", *ckpt, *(arg for a in ablate for arg in ("--ablate", a))])
        for command in ("eval-cls", "eval-det", "inspect"):
            runs.append([command, *ckpt, "--out", str(root / f"{name}.{command}.csv")])
    runs.append(["grad-check", "--config", str(cfg)])
    return runs


def bodies(path: Path) -> dict:
    """{code object: ("module.qualname", (file name, first line, qualname))}
    of every `def` and `lambda` in a source file."""
    source = path.read_text()
    starts = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # a decorated function's code starts on its first decorator
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            starts[first, getattr(node, "name", "<lambda>")] += 1
    found, stack = {}, [compile(source, str(path), "exec", dont_inherit=True)]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if (code.co_firstlineno, code.co_name) in starts:
            found[code] = (f"{path.stem}.{code.co_qualname}",
                           (path.name, code.co_firstlineno, code.co_qualname))
    # code objects compare by content, so they match the imported module's
    assert Counter((code.co_firstlineno, code.co_name) for code in found) == starts, path
    return found


def entered_code(runs, capsys) -> set:
    """The code objects entered while `cli.main` runs each argument list."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    cli.build_parser.cache_clear()  # a parser built by an earlier test is not rebuilt
    for argv in runs:
        sys.setprofile(profile)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()
    return entered


def test_every_body_runs_in_a_command(tmp_path, capsys):
    entered = entered_code(commands(tmp_path), capsys)
    listed = {}
    for path in sorted(PACKAGE.glob("*.py")):
        listed.update(bodies(path))
    never = [where for code, where in listed.items() if code not in entered]
    assert sorted(set(ALLOWED) - {name for name, _ in never}) == [], (
        "ALLOWED entries that run or are gone")
    unreached = sorted(where for name, where in never if name not in ALLOWED)
    assert not unreached, "bodies no command enters:\n" + "\n".join(
        f"{file}:{line} {qualname}" for file, line, qualname in unreached)
