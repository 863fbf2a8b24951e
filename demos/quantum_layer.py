"""The quantum layer, step by step.

Builds the 4-qubit circuit by hand (embedding, entangler, readout), checks
it against the one-layer closed form, then shows that the exact gradients
match finite differences.
"""

import numpy as np

from qincident import qsim

rng = np.random.default_rng(0)

# A fresh register, |0000>: all probability on the first basis state.
state = qsim.StateVector.zero(4)
print("fresh register <Z>:", qsim.z_expectations(state))

# Angle embedding encodes four classical values as RX rotation angles.
inputs = np.array([0.4, 1.1, 2.0, 0.0])
state = qsim.angle_embedding(state, inputs)
print("after embedding   :", np.round(qsim.z_expectations(state), 4))
# each qubit independently reads cos(angle) at this point
print("cos(inputs)       :", np.round(np.cos(inputs), 4))

# One basic entangler layer: trainable RX per qubit, then the CNOT ring
# (0->1), (1->2), (2->3), (3->0). Afterwards the qubits are correlated.
weights = rng.uniform(0, 2 * np.pi, size=(1, 4))
state = qsim.basic_entangler_layer(state, weights[0])
print("after entangling  :", np.round(qsim.z_expectations(state), 4))

# The whole layer as one call: embed -> entangle -> measure.
spec = qsim.QuantumLayerSpec(n_qubits=4, n_entangler_layers=1)
params = qsim.QuantumLayerParams(weights)
values = qsim.quantum_forward(inputs, params, spec)
print("quantum_forward   :", np.round(values, 4))

# With one entangler layer RX(x_i) and RX(w_i) merge into RX(x_i + w_i) and
# the ring only XORs bits, so <Z_j> is the product of cos(x_i + w_i) over
# the qubits whose bits the ring XORs into qubit j.
cos = np.cos(inputs + weights[0])
xor_sets = [[1, 2, 3], [0, 1], [0, 1, 2], [0, 1, 2, 3]]
print("product of cosines:", np.round([np.prod(cos[s]) for s in xor_sets], 4))

# Exact gradients: the closed form's derivatives for one entangler layer;
# deeper circuits use the parameter-shift rule, (f(t + pi/2) - f(t - pi/2)) / 2,
# which is exact because every parameterized gate is a single-parameter rotation.
grad = qsim.quantum_gradients(inputs, params, spec)
print("\nd outputs / d input angles:")
print(np.round(grad.d_inputs, 4))

step = 1e-5
fd = np.empty_like(grad.d_inputs)
for i in range(4):
    up, down = inputs.copy(), inputs.copy()
    up[i] += step
    down[i] -= step
    fd[i] = (qsim.quantum_forward(up, params, spec) - qsim.quantum_forward(down, params, spec)) / (2 * step)
print("max |exact gradient - finite difference|:", f"{np.abs(grad.d_inputs - fd).max():.2e}")
