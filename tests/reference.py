"""Helpers the tests share that no command needs, so `fewvid` does not carry
them: a parameter copy, the identity temporal kernel, the accuracy of
queries classified against one set of prototypes, and the accuracy of a
head on its own base videos."""

import numpy as np

from fewvid import autodiff as ad
from fewvid import evaluate, model, train


def copy_params(params: model.ModelParams) -> model.ModelParams:
    """Fresh requires_grad leaves holding copies of the parameters."""
    return model.ModelParams(**{
        name: ad.Tensor(t.data.copy(), requires_grad=True)
        for name, t in params.tensors().items()
    })


def delta_kernel(d: int, width: int = 8) -> np.ndarray:
    """Identity kernel for the temporal convolution (single center tap)."""
    k = np.zeros((d, width))
    k[:, (width - 1) // 2] = 1.0
    return k


def classification_accuracy(params: model.ModelParams, raws: list, labels,
                            proto: np.ndarray, cfg=None) -> float:
    """Share of (T_i, d_in) raw query videos whose top class against the
    (K, d) prototypes is their label: the videos embedded by
    `evaluate.embed_by_length` and classified as an evaluation block
    classifies its query uses (`evaluate._classify_stacks`)."""
    labels = np.asarray(labels)
    which = np.zeros(len(raws), dtype=np.intp)
    correct = sum(np.count_nonzero(res.top1 == labels[at])
                  for at, res in evaluate._classify_stacks(
                      params, *evaluate.embed_by_length(params, raws), proto[None], which, cfg))
    return correct / len(raws)


def training_accuracy(params: model.ModelParams, manifest) -> float:
    """Share of the manifest's base videos whose top class against the
    classifier's class rows is their own, each read as training reads it
    (`train.load_training_videos`) and classified as evaluation classifies a
    query."""
    videos, _ = train.load_training_videos(manifest)
    return classification_accuracy(params, [video.features for video in videos],
                                   [video.label for video in videos],
                                   params.classifier.data[:params.n_classes])
