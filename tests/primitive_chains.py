"""The training objective's layers as chains of autodiff primitives.

Each layer of the training graph is one node: the embedding
(`model._embedding_node`), the self-weighting (`losses._self_weight_rows`),
the aggregation (`losses._aggregate_videos`) and the cross entropy
(`losses._cross_entropy`). These are the primitive chains those nodes
replaced, kept as the oracles they must equal bit for bit, value and input
gradients. `install` builds the whole objective from them.
"""

import numpy as np

from fewvid import autodiff as ad
from fewvid import losses, model


def chain_embedding(params, raw, lengths):
    """transpose -> matmul -> depthwise_conv1d -> l2_normalize_rows."""
    transformed = ad.Tensor(raw) @ params.transform.T
    return ad.l2_normalize_rows(ad.depthwise_conv1d(transformed, params.temporal_kernel, lengths))


def chain_self_weight(f, i_bg, cfg):
    """take_rows -> mul -> sum -> (1 - c) - cos -> tau_s * -> sigmoid."""
    cos = (f * ad.take_rows(f, i_bg)).sum(axis=1, keepdims=True)
    return ad.sigmoid(cfg.tau_s * ((1.0 - cfg.c) - cos))


def chain_aggregate(f, weights, lengths):
    """mul -> segment_sum, segment_sum -> div."""
    num, den = ad.segment_sum(weights * f, lengths), ad.segment_sum(weights, lengths)
    if np.any(den.data == 0):
        raise ValueError("cannot aggregate with weights that sum to zero")
    return num / den


def chain_cross_entropy(feats, labels, classifier, tau):
    """transpose -> matmul -> tau * -> softmax -> take_per_row -> log -> mean -> neg."""
    probs = ad.softmax(tau * (feats @ classifier.T))
    return -(ad.log(ad.take_per_row(probs, labels))).mean()


def install(monkeypatch):
    """Build every layer of the training objective from its chain."""
    monkeypatch.setattr(model, "_embedding_node", chain_embedding)
    monkeypatch.setattr(losses, "_self_weight_rows", chain_self_weight)
    monkeypatch.setattr(losses, "_aggregate_videos", chain_aggregate)
    monkeypatch.setattr(losses, "_cross_entropy", chain_cross_entropy)


def weighted(out, g):
    """A scalar root whose gradient at `out` is exactly g."""
    return (out * ad.Tensor(g)).sum()
