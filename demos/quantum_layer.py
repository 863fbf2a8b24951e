"""The quantum layer, step by step.

Builds the 4-qubit circuit as one dense unitary (the Kronecker-product
reference in ``qsim``), reads out its Z expectations, checks them against
the term formula that ``qsim.forward_batch`` evaluates (at one entangler
layer a product of cosines), then shows that the exact gradients of
``qsim.gradients_batch`` match finite differences.
"""

import numpy as np

from qincident import qsim

rng = np.random.default_rng(0)

# Angle embedding RX(x_i) on qubit i, then one basic entangler layer:
# a trainable RX(w_i) per qubit and the CNOT ring (0->1), (1->2), (2->3), (3->0).
inputs = np.array([0.4, 1.1, 2.0, 0.0])
weights = rng.uniform(0, 2 * np.pi, size=(1, 4))

# The whole circuit as a 16 x 16 unitary applied to the fresh register |0000>.
unitary = qsim.circuit_matrix(inputs, weights)
amplitudes = unitary[:, 0]
print("largest |amplitude|  :", f"{np.abs(amplitudes).max():.4f}",
      f"at basis state {np.abs(amplitudes).argmax():04b}")
print("reference <Z>        :", np.round(qsim.quantum_forward(inputs, weights), 4))

# The batched kernel the models run, here on a batch of one embedding.
values = qsim.forward_batch(inputs[np.newaxis], weights)[0]
print("forward_batch        :", np.round(values, 4))

# With one entangler layer RX(x_i) and RX(w_i) merge into RX(x_i + w_i) and
# the ring only XORs bits, so <Z_j> is the product of cos(x_i + w_i) over
# the qubits whose bits the ring XORs into qubit j.
cos = np.cos(inputs + weights[0])
xor_sets = [[1, 2, 3], [0, 1], [0, 1, 2], [0, 1, 2, 3]]
print("product of cosines   :", np.round([np.prod(cos[s]) for s in xor_sets], 4))

# Exact gradients: the derivatives of the term formula, at every depth.  Each
# term is a product of one cos or sin per angle, so its slope in an angle is
# that factor's derivative times the product of the other factors.
_, d_inputs, _ = qsim.gradients_batch(inputs[np.newaxis], weights)
print("\nd outputs / d input angles:")
print(np.round(d_inputs[0], 4))

step = 1e-5
bumps = np.eye(4) * step
fd = (qsim.forward_batch(inputs + bumps, weights) - qsim.forward_batch(inputs - bumps, weights)) / (2 * step)
print("max |exact gradient - finite difference|:", f"{np.abs(d_inputs[0] - fd).max():.2e}")
