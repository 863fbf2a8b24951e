"""Mutation check: each mutant below must make its tests fail.

A mutant is one exact edit of a source file, ``old`` -> ``new``, and the
test files that must catch it.  The script copies the repository once into
a scratch directory, applies each mutant there in turn, runs
``pytest -x`` on the mutant's test files and prints whether the mutant was
killed (the tests failed) or survived (they passed).  A survivor means the
tests miss that fault, or that the mutated code is dead.  The repository
itself is never edited.

    python tests/mutants.py                         # every mutant
    python tests/mutants.py relu-mask-at-zero ...   # the named ones

It exits 0 when every mutant was killed, 1 when one survived, and 2 when a
mutant's ``old`` text no longer occurs exactly once in its file.  pytest
does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


DATA, SCENARIO = "src/qincident/data.py", "src/qincident/scenario.py"
NN, QSIM = "src/qincident/nn.py", "src/qincident/qsim.py"
MODEL, GRADCHECK, CLI = "src/qincident/model.py", "src/qincident/gradcheck.py", "src/qincident/cli.py"
EVALUATION, TEST_EVALUATION = "src/qincident/evaluation.py", "tests/test_evaluation.py"
TEST_DATA, TEST_SCENARIO = "tests/test_data.py", "tests/test_scenario.py"
TEST_NN, TEST_QSIM = "tests/test_nn.py", "tests/test_qsim.py"
TEST_MODEL, TEST_GRADCHECK, TEST_CLI = "tests/test_model.py", "tests/test_gradcheck.py", "tests/test_cli.py"

MUTANTS = [
    # vehicle codes
    Mutant(
        "codes-not-the-record-index", SCENARIO,
        "data.Records(times, np.arange(len(speeds)), zones, speeds)",
        "data.Records(times, np.arange(len(speeds))[::-1], zones, speeds)",
        (TEST_SCENARIO,),
    ),
    Mutant(
        "bsm-ids-unpadded", DATA,
        '    line = f"%d,v%0{width}d,%d,%r\\n"\n',
        '    line = "%d,v%d,%d,%r\\n"\n',
        (TEST_DATA,),
    ),
    Mutant(
        "id-codes-by-first-appearance", DATA,
        "    return codes\n",
        "    return np.unique(codes, return_index=True)[1].argsort().argsort()[codes]\n",
        (TEST_DATA,),
    ),
    Mutant(
        "id-ranks-restart-each-block", DATA,
        "        last = ranks[-1]\n",
        "",
        (TEST_DATA,),
    ),
    Mutant(
        "aggregate-sums-in-record-order", DATA,
        "    first = order[new]\n",
        "    first = np.sort(order[new])\n",
        (TEST_DATA,),
    ),
    Mutant(
        "aggregate-keeps-the-last-duplicate", DATA,
        "    first = order[new]\n",
        "    first = order[np.append(new[1:], True)]\n",
        (TEST_DATA,),
    ),
    Mutant(
        "generate-swaps-times-and-zones", SCENARIO,
        "    times, zones = np.divmod(cells, n_zones,",
        "    zones, times = np.divmod(cells, n_zones,",
        (TEST_SCENARIO,),
    ),
    Mutant(
        "negative-times-taken", DATA,
        "        if np.any(self.time < 0):\n",
        "        if np.any(self.time < -1):\n",
        (TEST_DATA,),
    ),
    # the record reader
    Mutant(
        "row-loop-takes-nul", DATA,
        '                if "\\x00" in fields[1]:\n',
        "                if False:\n",
        (TEST_DATA,),
    ),
    Mutant(
        "csv-error-uncaught", DATA,
        "        except (ValueError, csv.Error) as exc:",
        "        except ValueError as exc:",
        (TEST_CLI,),
    ),
    Mutant(
        "window-overlong-line-taken", DATA,
        "        if not len(ends):  # a line longer than the window\n            return None\n",
        "",
        (TEST_DATA,),
    ),
    Mutant(
        "loadtxt-takes-bytes-that-are-not-utf8", DATA,
        '                block.decode("utf-8")  # the row loop names a line that is not UTF-8\n',
        "",
        (TEST_DATA,),
    ),
    Mutant(
        "loadtxt-takes-nul", DATA,
        '_LOADTXT_UNSAFE = (b\'"\', b"\\r", b"\\x00", ',
        '_LOADTXT_UNSAFE = (b\'"\', b"\\r", ',
        (TEST_DATA,),
    ),
    # the feature pipeline and writer
    Mutant(
        "upstream-of-second-direction", DATA,
        "    up = np.where((zones == 0) | (zones == half), zones, zones - 1)\n",
        "    up = np.where((zones == 0) | (zones == half - 1), zones, zones - 1)\n",
        (TEST_DATA,),
    ),
    Mutant(
        "feature-writer-merges-signed-zeros", DATA,
        "        bits, where = np.unique(features[start:stop].view(np.int64), return_inverse=True)\n"
        "        texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)\n",
        "        bits, where = np.unique(features[start:stop], return_inverse=True)\n"
        "        texts = np.array([repr(v) for v in bits.tolist()], dtype=object)\n",
        (TEST_DATA,),
    ),
    Mutant(
        "csv-chunk-columns-transposed", DATA,
        "                *texts[where.reshape(-1, 6).T], table.labels[start:stop])\n",
        "                *texts[where.reshape(-1, 6)], table.labels[start:stop])\n",
        (TEST_DATA,),
    ),
    Mutant(
        "aggregate-takes-the-last-second-plus-one", DATA,
        "(zones >= n_zones) | (times >= duration)",
        "(zones >= n_zones) | (times > duration)",
        (TEST_DATA,),
    ),
    # training and the quantum layer
    Mutant(
        "relu-mask-at-zero", NN,
        "        return output > 0\n",
        "        return output >= 0\n",
        (TEST_NN,),
    ),
    Mutant(
        "adam-vc-with-beta1", NN,
        "    vc = 1.0 - ADAM_BETA2**state.step_count\n",
        "    vc = 1.0 - ADAM_BETA1**state.step_count\n",
        (TEST_NN,),
    ),
    Mutant(
        "adam-skips-the-last-block", NN,
        "    for start in range(0, p.size, _ADAM_BLOCK):\n",
        "    for start in range(0, p.size - _ADAM_BLOCK, _ADAM_BLOCK):\n",
        (TEST_NN,),
    ),
    Mutant(
        "dz-in-a-buffer-of-its-own", NN,
        "    dz = np.multiply(d_out, activate_deriv(layer.activation, out), out=out)\n",
        "    dz = np.multiply(d_out, activate_deriv(layer.activation, out))\n",
        (TEST_NN,),
    ),
    Mutant(
        "learning-rate-zero-taken", NN,
        "math.isfinite(self.learning_rate) and self.learning_rate > 0",
        "math.isfinite(self.learning_rate) and self.learning_rate >= 0",
        (TEST_CLI,),
    ),
    Mutant(
        "products-right-to-left", QSIM,
        "    out = slots.take(table[..., 0], axis=-1)\n"
        "    for k in range(1, table.shape[-1]):\n",
        "    out = slots.take(table[..., -1], axis=-1)\n"
        "    for k in range(table.shape[-1] - 2, -1, -1):\n",
        (TEST_QSIM,),
    ),
    Mutant(
        "forward-bytes-leaves-out-the-products", QSIM,
        "    return 8 * (5 * (n * n_layers + 1) + 2 * _terms(n, n_layers).signs.size)\n",
        "    return 8 * 5 * (n * n_layers + 1)\n",
        (TEST_QSIM,),
    ),
    # the parameter vector and its layout
    Mutant(
        "layout-offset-not-advanced", MODEL,
        "                offset += math.prod(shape)\n",
        "",
        (TEST_MODEL,),
    ),
    Mutant(
        "forward-budget-counts-only-outputs", NN,
        "        return 8 * (self.in_dim + self.out_dim)\n",
        "        return 8 * self.out_dim\n",
        (TEST_MODEL,),
    ),
    Mutant(
        "plan-views-a-copy-of-params", MODEL,
        "    return _views(model.params, model.layout), grad,",
        "    return _views(model.params.copy(), model.layout), grad,",
        (TEST_MODEL,),
    ),
    Mutant(
        "plans-make-their-own-gradient", MODEL,
        "    buffers = [layer.plan(lead, first=i == 0) for i, layer in enumerate(model.layers)]\n",
        "    grad = np.empty_like(grad)\n"
        "    buffers = [layer.plan(lead, first=i == 0) for i, layer in enumerate(model.layers)]\n",
        (TEST_MODEL,),
    ),
    Mutant(
        "one-step-plan-for-every-batch-size", MODEL,
        "            loss, grad = loss_and_gradients(model, features[batch], y, plans[len(y)])\n",
        "            loss, grad = loss_and_gradients(model, features[batch], y, plans[max(plans)])\n",
        (TEST_MODEL,),
    ),
    # run groups and the experiment
    Mutant(
        "run-groups-read-the-first-runs", MODEL,
        "model.params[start : start + group], model.seed + start)",
        "model.params[:group], model.seed + start)",
        (TEST_MODEL,),
    ),
    Mutant(
        "run-groups-drop-the-seed-offset", MODEL,
        "model.params[start : start + group], model.seed + start)",
        "model.params[start : start + group], model.seed)",
        (TEST_MODEL,),
    ),
    Mutant(
        "experiment-predicts-the-whole-population", EVALUATION,
        "                 for row in model_mod.predict(group, split.test_x)],\n",
        "                 for row in model_mod.predict(population, split.test_x)],\n",
        (TEST_EVALUATION,),
    ),
    Mutant(
        "run-seeds-int64", MODEL,
        "    seeds = config.seed + np.arange(math.prod(runs), dtype=object)",
        "    seeds = config.seed + np.arange(math.prod(runs))",
        (TEST_CLI,),
    ),
    Mutant(
        "forward-seed-int64", MODEL,
        "{model.seed + sum(map(int, run))}",
        "{model.seed + sum(run)}",
        (TEST_CLI,),
    ),
    # the gradient oracles
    Mutant(
        "probe-buffer-not-restored", GRADCHECK,
        "            rows[probed] = base[probed[1]]\n",
        "",
        (TEST_GRADCHECK,),
    ),
    Mutant(
        "probe-reads-its-rows-reversed", GRADCHECK,
        "            h = layer.forward(model_mod._views(rows, (own,))[0], inputs[l][: len(rows)])[:, 0]\n",
        "            h = layer.forward(model_mod._views(rows[::-1], (own,))[0], inputs[l][: len(rows)])[:, 0]\n",
        (TEST_GRADCHECK,),
    ),
    Mutant(
        "layer-probe-starts-from-the-features", GRADCHECK,
        "            h = layer.forward(model_mod._views(rows, (own,))[0], inputs[l][: len(rows)])[:, 0]\n",
        "            h = layer.forward(model_mod._views(rows, (own,))[0], inputs[0][: len(rows)])[:, 0]\n",
        (TEST_GRADCHECK,),
    ),
    Mutant(
        "base-pattern-from-the-next-layer-on", GRADCHECK,
        "base_pattern = net.params[first:stop], np.concatenate(patterns[l:], axis=-1)\n",
        "base_pattern = net.params[first:stop], np.concatenate(patterns[l + 1 :], axis=-1)\n",
        (TEST_GRADCHECK,),
    ),
    Mutant(
        "pshift-probes-around-the-first-case", GRADCHECK,
        "                rows = np.repeat(base[:, np.newaxis], 2 * m, axis=1)  # [C, 2m, m]\n",
        "                rows = np.repeat(base[[0] * len(group), np.newaxis], 2 * m, axis=1)\n",
        (TEST_GRADCHECK,),
    ),
    Mutant(
        "pshift-one-call-per-shape", GRADCHECK,
        "            per_call = SHIFT_ROWS // (2 * m)\n",
        "            per_call = len(cases)\n",
        (TEST_GRADCHECK,),
    ),
    # the command line
    Mutant(
        "runs-above-the-cap-taken", CLI,
        "        if self.n_runs > MAX_RUNS:\n",
        "        if self.n_runs > MAX_RUNS + 1:\n",
        (TEST_CLI,),
    ),
    Mutant(
        "inferred-corridor-of-no-zones", CLI,
        "max(1, int(records.zone.max()) + 1)",
        "int(records.zone.max()) + 1",
        (TEST_CLI,),
    ),
    Mutant(
        "features-drops-the-bsm-prefix", CLI,
        '        raise DataError(f"{args.bsm}: {exc}") from None\n',
        "        raise DataError(str(exc)) from None\n",
        (TEST_CLI,),
    ),
    Mutant(
        "parse-error-exits-1", CLI,
        "    except (ParseError, FormatError, OSError) as exc:\n",
        "    except (FormatError, OSError) as exc:\n",
        (TEST_CLI,),
    ),
]


def run(mutants: list[Mutant], work: Path) -> dict[str, list[str]]:
    """Each mutant's outcome, "killed" or "survived", by name."""
    copy = work / "repo"
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", copy)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    outcome: dict[str, list[str]] = {"killed": [], "survived": []}
    for mutant in mutants:
        target = copy / mutant.path
        original = target.read_text(encoding="utf-8")
        target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
        started = time.perf_counter()
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--hypothesis-seed=0", *mutant.tests],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        finally:
            target.write_text(original, encoding="utf-8")
        verdict = "survived" if result.returncode == 0 else "killed"
        outcome[verdict].append(mutant.name)
        print(f"{verdict:9} {mutant.name} ({time.perf_counter() - started:.1f} s)", flush=True)
    return outcome


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    stale = [m.name for m in chosen if (ROOT / m.path).read_text(encoding="utf-8").count(m.old) != 1]
    if stale:
        print(f"old text not found exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        outcome = run(chosen, Path(work))
    print(f"killed {len(outcome['killed'])}, survived {len(outcome['survived'])}"
          + (f": {', '.join(outcome['survived'])}" if outcome["survived"] else ""))
    return 1 if outcome["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
