"""The benchmark's workloads: one tree shape, corpus size and training recipe each.

Every workload is closed-loop and single-process: one cycle trains a model
from scratch (with checkpoints written), then evaluates it, and the next cycle
starts only when the previous one has finished. All share c=16, s=8, h=64,
batch 8 and dropout 0.1, so that they differ only in the layer they load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEMO_FANOUTS = (3, 3, 3, 3)  # level sizes 3/9/27/81, the shipped demo tree
ICD_SIZES = (36, 279, 1167, 8929)  # ICD-sized synthetic tree, 10,411 nodes

# pinned to 1 before numpy is imported, and recorded with every run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "XRLAT_THREADS")

SHARED_TRAIN = dict(batch_size=8, dropout=0.1, c=16, s=8, hidden_size=64)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tree: str  # "demo" or "icd"
    n_train: int
    n_test: int
    chain: bool  # True: train_xr_lat and cascade eval; False: train_flat
    train: dict = field(default_factory=dict)  # TrainConfig fields beyond SHARED_TRAIN

    def train_config(self, seed: int) -> dict:
        return {**SHARED_TRAIN, **self.train, "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="demo-flat-l2",
            why=(
                "Encoder-bound: at 81 labels the head is negligible and two transformer "
                "blocks take most of each document's fwd+bwd, so an encoder change shows "
                "here and leaves the ICD workloads flat."
            ),
            tree="demo",
            n_train=400,
            n_test=200,
            chain=False,
            train=dict(n_layers=2, loss="bce", learning_rate=1e-2, weight_decay=0.01,
                       max_steps=30, log_interval=10),
        ),
        Workload(
            name="icd-flat-asl",
            why=(
                "Head-bound: at 8929 codes the label-attention head dominates, and ASL, "
                "AdamW, the gradient reduce and per-code metrics scale with the label "
                "count, so changes to those show here."
            ),
            tree="icd",
            n_train=200,
            n_test=60,
            chain=False,
            train=dict(n_layers=0, loss="asl", learning_rate=1e-2, weight_decay=0.01,
                       max_steps=6, log_interval=2),
        ),
        Workload(
            name="icd-xrlat-hyperc",
            why=(
                "The paper's method at ICD scale: Poincare embeddings, bootstrap-hyperc, "
                "negative sampling and cascade eval run the head masked and sparse, so "
                "mask and cascade changes show only here."
            ),
            tree="icd",
            n_train=200,
            n_test=40,
            chain=True,
            train=dict(n_layers=0, loss="bce", learning_rate=1e-2, weight_decay=0.0,
                       bootstrap="hyperc", negative_sampling=True, max_steps=30,
                       log_interval=10),
        ),
    )
}
