"""Independent verification routes for the quantum layer and the training
gradients.

Three suites, each pitting the production path against a slower route built
from different primitives:

* forward oracle: the term formula the models run (``qsim.forward_batch``)
  vs the circuit as Kronecker-product gate matrices
  (``qsim.quantum_forward``); a shape's cases run as one call of each;
* the layer's exact gradients (derivatives of the term formula) vs central
  finite differences of ``qsim.quantum_forward``, printed as
  ``parameter-shift`` for the benchmark's checks, though no parameter shift
  runs since the term formula replaced the shifted circuits; whole cases
  of one shape share an oracle call of at most ``SHIFT_ROWS`` probe rows;
* hybrid stack: backpropagated loss gradients vs finite differences of the
  scalar loss over every trainable parameter, one layer's parameters at a
  time (``_layer_differences``).  One base forward through the layers'
  run-axis path records each layer's input and ReLU pattern; the probes of
  layer l's coordinates are stacked, one row of layer l's parameters per
  probe, in ``_central_differences``, which writes them in place into one
  buffer per call that holds the base segment between passes.  A probe
  runs layer l per row from its recorded input, then each later layer once
  over all rows with the shared base arrays.  A coordinate whose probes
  cross a ReLU kink halves its own step and is probed again.

Both derivative suites take each difference as (plus - minus) / (2 step)
of probes at ``base[k]`` +- step.

Used by the test suite and by the ``gradcheck`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import nn, qsim


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_err: float
    tol: float
    n_cases: int
    worst: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = (
            f"{self.name}: {status}  max err {self.max_err:.3e} "
            f"(tol {self.tol:.0e}, {self.n_cases} cases)"
        )
        if self.worst and not self.passed:
            msg += f"  worst: {self.worst}"
        return msg


def check_forward_oracle(
    seed: int = 0,
    cases_per_shape: int = 20,
    qubit_counts: tuple[int, ...] = (2, 3, 4),
    layer_counts: tuple[int, ...] = (1, 2),
    tol: float = 1e-10,
) -> SuiteResult:
    """The batched kernel the models run (``forward_batch``) against the
    Kronecker-product circuit (``quantum_forward``) on random circuits, each
    shape's cases stacked into one call of each."""
    rng = np.random.default_rng(seed)
    max_err, worst, n_cases = 0.0, "", 0
    for n in qubit_counts:
        for layers in layer_counts:
            cases = [
                (rng.uniform(-2 * np.pi, 2 * np.pi, size=n),
                 rng.uniform(-2 * np.pi, 2 * np.pi, size=(layers, n)))
                for _ in range(cases_per_shape)
            ]
            inputs, weights = (np.array(part) for part in zip(*cases))
            # each case is a population of one run with a batch of one row
            got = qsim.forward_batch(inputs[:, np.newaxis], weights)[:, 0]
            err = np.max(np.abs(got - qsim.quantum_forward(inputs, weights)), axis=-1)
            n_cases += len(err)
            if err.max() > max_err:
                max_err, worst = float(err.max()), f"n={n} layers={layers}"
    return SuiteResult("forward-oracle", max_err <= tol, max_err, tol, n_cases, worst)


def check_parameter_shift(
    seed: int = 0,
    n_cases: int = 50,
    step: float = 1e-5,
    tol: float = 1e-6,
) -> SuiteResult:
    """quantum_gradients against central finite differences of quantum_forward,
    probed along one vector of a case's inputs and weights.

    A case of m inputs and weights probes ``base`` + step at coordinate k in
    row k and ``base`` - step there in row m + k, with no probe at ``base``
    itself.  Whole cases of one shape ``(n, layers)``, in draw order, share
    one ``quantum_forward`` call of at most ``SHIFT_ROWS`` rows; a row's
    values have the same bits whatever rows share its call.  Below
    ``MIN_STEP`` no probe runs and every difference is NaN, a failure.
    """
    rng = np.random.default_rng(seed)
    bases, analytic, shapes = [], [], {}
    for case in range(n_cases):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(1, 3))
        inputs = rng.uniform(-np.pi, np.pi, size=n)
        weights = rng.uniform(-np.pi, np.pi, size=(layers, n))
        _, d_inputs, d_weights = qsim.quantum_gradients(inputs, weights)
        bases.append(np.concatenate((inputs, weights.ravel())))
        analytic.append(np.concatenate((d_inputs, d_weights.reshape(-1, n))))
        shapes.setdefault((n, layers), []).append(case)

    fd = [np.full_like(grad, np.nan) for grad in analytic]
    if step >= MIN_STEP:
        for (n, layers), cases in shapes.items():
            m = n + layers * n
            per_call = SHIFT_ROWS // (2 * m)
            k = np.arange(m)
            for first in range(0, len(cases), per_call):
                group = cases[first : first + per_call]
                base = np.array([bases[case] for case in group])  # [C, m]
                rows = np.repeat(base[:, np.newaxis], 2 * m, axis=1)  # [C, 2m, m]
                rows[:, k, k] += step
                rows[:, m + k, k] -= step
                rows = rows.reshape(-1, m)
                values = qsim.quantum_forward(rows[:, :n], rows[:, n:].reshape(-1, layers, n))
                values = values.reshape(len(group), 2 * m, n)
                for case, diff in zip(group, (values[:, :m] - values[:, m:]) / (2 * step)):
                    fd[case] = diff

    max_err, worst = 0.0, ""
    for case, (grad, diff) in enumerate(zip(analytic, fd)):
        n = grad.shape[1]
        err = np.max(np.abs(grad - diff), axis=1)
        err[np.isnan(err)] = np.inf
        if err.max() > max_err:
            k = int(np.argmax(err))
            max_err, (layer, qubit) = float(err[k]), divmod(k - n, n)
            worst = f"case {case} " + (f"input {k}" if k < n else f"weight ({layer},{qubit})")
    return SuiteResult("parameter-shift", max_err <= tol, max_err, tol, n_cases, worst)


# Smallest finite-difference step tried before a coordinate whose probes
# keep crossing a ReLU kink is counted as a failure.
MIN_STEP = 1e-8

# The most probe rows in one ``quantum_forward`` call of the
# parameter-shift suite, and so the most stacked gate matrices: a case of n
# qubits and L layers probes 2 (n + L n) rows, and the largest drawn case
# (n=4, L=2) fits alone.
SHIFT_ROWS = 24

# Coordinates probed together: a pass stacks two probe rows per coordinate,
# each holding one layer's parameters, so the probe matrix holds at most
# 2 PROBE_CHUNK rows of one layer's parameters, and every stacked
# activation 2 PROBE_CHUNK rows.
PROBE_CHUNK = 36


def check_hybrid_gradients(
    seed: int = 0,
    n_draws: int = 20,
    step: float = 1e-4,
    rel_tol: float = 1e-3,
    grad_floor: float = 1e-6,
) -> SuiteResult:
    """Backprop through the full hybrid stack vs finite differences of the loss.

    Relative error is checked per coordinate wherever the analytic gradient
    magnitude exceeds ``grad_floor``.  The loss at each probe comes from the
    forward pass alone, one layer's coordinates at a time, ``PROBE_CHUNK``
    of them a pass (see ``_layer_differences``).  A probe pair that crosses
    a ReLU kink measures the slope of a different linear piece, so that
    coordinate's step is halved until both probes keep the base point's
    activation pattern; one that never does is unresolved, a failure.
    """
    rng = np.random.default_rng(seed)
    config = model_mod.HybridModelConfig(kind="hybrid", n_qubits=4)
    max_rel, worst, n_checked = 0.0, "", 0
    for draw in range(n_draws):
        net = model_mod.build_model(config, seed=seed * 1000 + draw)
        features = rng.uniform(0.0, 1.0, size=(1, 6))
        label = np.array([float(rng.integers(0, 2))])
        _, grad = model_mod.loss_and_gradients(net, features, label)
        coords = np.flatnonzero(np.abs(grad) > grad_floor)
        n_checked += len(coords)
        fd = _layer_differences(net, features, label, coords, step)
        analytic = grad[coords]
        rel = np.abs(fd - analytic) / np.maximum(np.abs(fd), np.abs(analytic))
        rel[np.isnan(fd)] = np.inf
        if rel.max(initial=0.0) > max_rel:
            i = int(np.argmax(rel))
            max_rel, worst = float(rel[i]), f"draw {draw} coord {coords[i]}"
            if np.isnan(fd[i]):
                worst += " (unresolved: no probe pair of step >= MIN_STEP kept the base pattern)"
    return SuiteResult(
        "hybrid-backprop", max_rel <= rel_tol, max_rel, rel_tol, n_checked, worst
    )


def _layer_differences(
    net: model_mod.Model, features: np.ndarray, label: np.ndarray, coords: np.ndarray, step: float
) -> np.ndarray:
    """Central differences [len(coords)] of one model's loss at the row
    ``features`` [1, 6] with ``label`` [1] along the parameter coordinates
    ``coords``, one layer's coordinates at a time; NaN where unresolved.

    One base forward, with a run axis of one, records each layer's input
    and its ReLU pattern.  The probe rows of layer l hold only its segment
    of ``params``: a probe runs layer l per row from its recorded input,
    which every row shares, so the earlier layers are not run again; each
    later layer then runs once over all rows with its shared base arrays,
    as one [rows, in] product.  A probe keeps the base pattern when the
    units of layer l and of every later layer do.
    """
    inputs, patterns, h = [], [], features
    for layer, arrays in zip(net.layers, model_mod._views(net.params[np.newaxis], net.layout)):
        # the input of every probe row of a pass: 2 PROBE_CHUNK rows at most
        inputs.append(np.broadcast_to(h, (2 * PROBE_CHUNK,) + h.shape[-2:]))
        h = layer.forward(arrays, h)
        patterns.append(layer.gates(h[:, 0]))
    shared = model_mod._views(net.params, net.layout)
    out = np.full(len(coords), np.nan)
    for l, (layer, entry) in enumerate(zip(net.layers, net.layout)):
        first, stop = entry[0][0].start, entry[-1][0].stop
        mine = (coords >= first) & (coords < stop)
        own = tuple((slice(part.start - first, part.stop - first), shape) for part, shape in entry)

        def probe(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # each row of ``rows`` [R, P_l] is one vector of layer l's parameters
            h = layer.forward(model_mod._views(rows, (own,))[0], inputs[l][: len(rows)])[:, 0]
            active = [layer.gates(h)]
            for later, arrays in zip(net.layers[l + 1 :], shared[l + 1 :]):
                h = later.forward(arrays, h)
                active.append(later.gates(h))
            return nn.bce_loss(h[:, 0], label), np.concatenate(active, axis=-1)

        segment, base_pattern = net.params[first:stop], np.concatenate(patterns[l:], axis=-1)
        out[mine] = _central_differences(probe, segment, coords[mine] - first, step, base_pattern)
    return out


def _central_differences(
    probe, base: np.ndarray, coords: np.ndarray, step: float, base_pattern: np.ndarray
) -> np.ndarray:
    """Central differences [len(coords)] of a scalar value along coordinates
    ``coords`` of the parameter vector ``base``; NaN where unresolved.

    ``probe(rows)`` returns the value [R] (the hybrid suite's loss) and the
    ReLU pattern [R, U] at each of the parameter vectors ``rows`` [R, P];
    ``base_pattern`` [1, U] is the pattern at ``base`` itself, which no
    pass probes.
    Coordinates go in chunks of ``PROBE_CHUNK``: one pass over m of a
    chunk's coordinates probes ``base`` + step at coordinate i in row i and
    ``base`` - step there in row m + i.  A coordinate whose probes both show
    the base pattern is resolved; any other has its own step halved and is
    probed again in the next pass, until that step falls below ``MIN_STEP``.

    The rows of every pass are the leading 2m rows of one buffer, filled
    with ``base`` once per call: a pass writes its 2m stepped entries, probes
    that view and writes ``base`` back into those entries, so what ``probe``
    returns must not be a view of ``rows``.
    """
    out = np.full(len(coords), np.nan)
    if step < MIN_STEP:
        return out
    buffer = np.repeat(base[np.newaxis], 2 * min(PROBE_CHUNK, len(coords)), axis=0)
    for first in range(0, len(coords), PROBE_CHUNK):
        todo = np.arange(first, min(first + PROBE_CHUNK, len(coords)))
        steps = np.full(len(todo), float(step))
        while len(todo):
            m, ks = len(todo), coords[todo]
            rows, probed = buffer[: 2 * m], (np.arange(2 * m), np.concatenate((ks, ks)))
            rows[probed] = np.concatenate((base[ks] + steps, base[ks] - steps))
            values, pattern = probe(rows)
            rows[probed] = base[probed[1]]
            kept = np.all(pattern == base_pattern, axis=-1)
            resolved = kept[:m] & kept[m:]
            out[todo[resolved]] = (values[:m] - values[m:])[resolved] / (2 * steps[resolved])
            steps = steps * 0.5
            left = ~resolved & (steps >= MIN_STEP)
            todo, steps = todo[left], steps[left]
    return out


def run_all(seed: int = 0) -> list[SuiteResult]:
    """All three suites."""
    return [
        check_forward_oracle(seed=seed),
        check_parameter_shift(seed=seed),
        check_hybrid_gradients(seed=seed),
    ]
