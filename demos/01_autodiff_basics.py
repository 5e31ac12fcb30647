"""Build a computation graph from one hand-written node, read exact gradients
off it, and verify them against central finite differences."""
import numpy as np

from fewvid import autodiff as ad


def squared_error(x, w, t):
    """loss = sum((sigmoid(x @ w) - t)^2) as one graph node over (x, w): a
    forward on plain arrays and the backward that goes with it, the way the
    training objective builds each of its layers."""
    pred = None  # from the latest forward evaluation

    def fwd(xv, wv):
        nonlocal pred
        pred = ad.sigmoid_forward(xv @ wv)
        return np.sum((pred - t) ** 2)

    def bwd(g, out, xv, wv):
        g_logit = ad.sigmoid_backward(2.0 * (pred - t) * g, pred)
        return g_logit @ wv.T, xv.T @ g_logit

    return ad._node("squared_error", (x, w), fwd, bwd)


rng = np.random.default_rng(0)
x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = ad.Tensor(rng.normal(size=(3, 1)), requires_grad=True)
t = rng.normal(size=(4, 1))

loss = squared_error(x, w, t)
print("loss:", float(loss.data))

grads = ad.backward(loss)
print("dloss/dw:\n", grads[w])

# the graph is re-runnable: change a leaf in place and re-evaluate
w.data[0, 0] += 1.0
print("loss after nudging w[0,0]:", float(ad.forward(loss).data))
w.data[0, 0] -= 1.0

# independent numerical check of the node's backward
report = ad.grad_check(lambda leaves: squared_error(leaves["x"], leaves["w"], t),
                       {"x": x.data, "w": w.data}, h=1e-5, tol=1e-4)
print(report.summary())
